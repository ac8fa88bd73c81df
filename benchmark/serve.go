package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/serve"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
)

const (
	serveRefs    = 4000 // references per thread in each serve_mixed capture
	serveCaps    = 2    // captures per application
	serveClients = 2    // closed-loop clients, one connection each
	// Cold operations per capture: four of the six mechanisms at each
	// outstanding-miss setting 1-6, plus one more drawn from the rest.
	// Drawing per capture and per setting keeps the summed simulated
	// cycles close across seeds.
	coldPerCap = 6*4 + 1
	coldOps    = coldPerCap * serveCaps * 4 // 200, enough for a p95 with 10 samples beyond it
	warmOps    = 1000                       // enough for a p99 with 10 samples beyond it
	setupBoots = 5
)

// serveMechs are the mechanisms the cold triples are drawn from. They are
// pinned here, not taken from the tree's list of registered policies, so
// that a newly registered policy does not change the jobs a seed draws.
var serveMechs = []config.Mechanism{config.Baseline, config.WBHT, config.Snarf,
	config.Combined, config.ReuseDist, config.HybridUI}

// serveOp is one client operation: a cold submission of a triple not
// run before, or a warm resubmission of one this client has completed.
type serveOp struct {
	cold bool
	job  sweep.Job
}

// serveSequences draws each client's operation sequence from the seed:
// coldOps distinct (capture, mechanism, outstanding) triples split
// between the clients, with warmOps resubmissions interleaved, each of a
// triple the same client already completed.
func serveSequences(seed uint64, caps []string) ([serveClients][]serveOp, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e12fe))
	var cold []sweep.Job
	for _, c := range caps {
		var rest []sweep.Job
		for out := 1; out <= 6; out++ {
			for i, k := range rng.Perm(len(serveMechs)) {
				j := sweep.Job{TraceFile: c, Mechanism: serveMechs[k], Outstanding: out}
				if i < 4 {
					cold = append(cold, j)
				} else {
					rest = append(rest, j)
				}
			}
		}
		cold = append(cold, rest[rng.IntN(len(rest))])
	}
	if len(cold) != coldOps {
		return [serveClients][]serveOp{}, fmt.Errorf("drew %d cold triples from %d captures, want %d", len(cold), len(caps), coldOps)
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })

	var seqs [serveClients][]serveOp
	perCold, perWarm := coldOps/serveClients, warmOps/serveClients
	for c := range seqs {
		mine := cold[c*perCold : (c+1)*perCold]
		kinds := make([]bool, perCold-1+perWarm) // true = cold
		for i := range perCold - 1 {
			kinds[i] = true
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		seq := []serveOp{{cold: true, job: mine[0]}}
		done := 1
		for _, isCold := range kinds {
			if isCold {
				seq = append(seq, serveOp{cold: true, job: mine[done]})
				done++
			} else {
				seq = append(seq, serveOp{job: mine[rng.IntN(done)]})
			}
		}
		seqs[c] = seq
	}
	return seqs, nil
}

func servePlan(r *runner) (*plan, error) {
	var caps []string
	records := make(map[string]int64)
	for _, app := range apps {
		for i := range serveCaps {
			c, err := r.capture(app, serveRefs, fmt.Sprintf("serve%d", i))
			if err != nil {
				return nil, err
			}
			caps = append(caps, c.path)
			records[c.path] = c.records
		}
	}
	seqs, err := serveSequences(r.seed, caps)
	if err != nil {
		return nil, err
	}
	bin := r.tool("cmpserved")
	sessions := 0
	cacheDir := func() string {
		sessions++
		return filepath.Join(r.work, fmt.Sprintf("cache-%d", sessions))
	}
	// A profile of the daemon covers the operation phase the previous
	// session took; the first traced session has an untraced one before it.
	var lastWall time.Duration

	// The in-process jobs are cold jobs of the sequence, so their results
	// must match the daemon's bytes.
	var inproc []inprocJob
	for _, op := range seqs[0] {
		if op.cold && len(inproc) < len(caps) {
			inproc = append(inproc, inprocJob{op.job, records[op.job.TraceFile]})
		}
	}
	return &plan{
		setups: setupBoots,
		setup: func() (time.Duration, error) {
			srv, err := startServer(r.ctx, bin, cacheDir())
			if err != nil {
				return 0, err
			}
			defer srv.kill()
			if err := srv.ready(); err != nil {
				return 0, err
			}
			d := time.Since(srv.start)
			_, err = srv.stop()
			return d, err
		},
		rep: func(p *pass, traced bool) error {
			r.attempt()
			srv, err := startServer(r.ctx, bin, cacheDir())
			if err != nil {
				r.fail("%v", err)
				return nil
			}
			defer srv.kill()
			if err := srv.ready(); err != nil {
				r.fail("%v", err)
				return nil
			}
			var profile chan error
			if traced {
				secs := max(1, int(math.Ceil(lastWall.Seconds())))
				path := r.profilePath("cmpserved")
				profile = make(chan error, 1)
				go func() { profile <- fetchProfile(srv.base, secs, path) }()
			}

			start := time.Now()
			outcomes := runClients(srv.base, seqs, r.tracer(traced), r.nextOp)
			wall := time.Since(start)
			lastWall = wall

			if profile != nil {
				r.attempt()
				if err := <-profile; err != nil {
					r.fail("cmpserved profile: %v", err)
				}
			}
			r.attempt()
			if r.counters, err = getText(srv.base + "/metrics"); err != nil {
				r.fail("scrape /metrics: %v", err)
			} else if runs := promSum(r.counters, "cmpserved_sim_runs_total", ""); runs != coldOps {
				r.fail("cmpserved ran %v simulations, want %d", runs, coldOps)
			}
			pr, err := srv.stop()
			if err != nil {
				r.fail("%v", err)
			}

			var cycles uint64
			var refs float64
			var results []*system.Results
			var lat []float64
			for _, o := range outcomes {
				r.attempt()
				if o.err != nil {
					r.fail("%s: %v", jobKey(o.op.job), o.err)
					continue
				}
				res, ok := r.result(jobKey(o.op.job), o.result, records[o.op.job.TraceFile])
				if !ok {
					continue
				}
				lat = append(lat, ms(o.lat))
				if o.op.cold {
					p.cold = append(p.cold, ms(o.lat))
					cycles += res.Cycles
					refs += float64(res.RefsCompleted)
					results = append(results, res)
				} else {
					p.warm = append(p.warm, ms(o.lat))
				}
			}
			r.record(p, cycles, results)
			p.add(pr, wall, refs, len(lat), lat...)
			return nil
		},
		inproc: inproc,
	}, nil
}

// opOutcome is what one client operation returned.
type opOutcome struct {
	op     serveOp
	result []byte // the Results JSON the daemon served
	lat    time.Duration
	err    error
}

// runClients drives the daemon with one closed-loop client per sequence:
// each sends its next operation as soon as the previous one finished.
// The clients share a transport capped at one connection per client.
func runClients(base string, seqs [serveClients][]serveOp, spans *spanLog, nextOp func(string) string) []opOutcome {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()
	// Operation IDs are drawn up front: nextOp is not safe for concurrent use.
	ids := make([][]string, len(seqs))
	for c, seq := range seqs {
		for range seq {
			ids[c] = append(ids[c], nextOp("serve"))
		}
	}
	results := make([][]opOutcome, len(seqs))
	var wg sync.WaitGroup
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &serveClient{hc: hc, base: base, spans: spans}
			for i, op := range seq {
				results[c] = append(results[c], cl.do(op, ids[c][i]))
			}
		}()
	}
	wg.Wait()
	var all []opOutcome
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all
}

// serveClient issues one client's operations. With spans attached it
// records a span around each request and sends the operation ID as
// X-Request-Id.
type serveClient struct {
	hc    *http.Client
	base  string
	spans *spanLog
	op    string // ID of the operation in progress
}

// do runs one operation: submit, then for a cold job wait on the
// job's event stream until it is done, then fetch the result.
func (c *serveClient) do(op serveOp, id string) opOutcome {
	c.op = id
	start := time.Now()
	kind := "warm"
	if op.cold {
		kind = "cold"
	}
	root := c.spans.begin(id, 0, "serve."+kind)
	defer c.spans.end(root, 0)
	result, err := c.run(op, root, kind)
	return opOutcome{op: op, result: result, lat: time.Since(start), err: err}
}

func (c *serveClient) run(op serveOp, root int, kind string) ([]byte, error) {
	body, err := json.Marshal(serve.SubmitRequest{
		Traces:      []string{op.job.TraceFile},
		Mechanisms:  []string{op.job.Mechanism.String()},
		Outstanding: []int{op.job.Outstanding},
	})
	if err != nil {
		return nil, err
	}
	sp := c.spans.begin(c.op, root, "http.submit_"+kind)
	var sub serve.SubmitResponse
	code, err := c.call(http.MethodPost, "/v1/jobs", body, &sub)
	c.spans.end(sp, 0)
	if err != nil {
		return nil, err
	}
	if len(sub.Jobs) != 1 {
		return nil, fmt.Errorf("submit returned %d jobs, want 1", len(sub.Jobs))
	}
	job := sub.Jobs[0]
	switch {
	case op.cold && (code != http.StatusAccepted || job.Cached):
		return nil, fmt.Errorf("cold submit answered %d (cached %v), want 202 and a fresh run", code, job.Cached)
	case !op.cold && (code != http.StatusOK || job.CacheLevel != serve.CacheL1):
		return nil, fmt.Errorf("warm submit answered %d from cache level %q, want 200 from l1", code, job.CacheLevel)
	}
	if op.cold {
		sp = c.spans.begin(c.op, root, "http.events_wait")
		err = c.waitDone(job.ID)
		c.spans.end(sp, 0)
		if err != nil {
			return nil, err
		}
	}
	sp = c.spans.begin(c.op, root, "http.result_get")
	var view serve.JobView
	_, err = c.call(http.MethodGet, "/v1/jobs/"+job.ID, nil, &view)
	c.spans.end(sp, 0)
	if err != nil {
		return nil, err
	}
	if view.Status != serve.JobDone || len(view.Result) == 0 {
		return nil, fmt.Errorf("job %s is %s (%s), want done with a result", job.ID, view.Status, view.Error)
	}
	return view.Result, nil
}

// request builds a request carrying the operation ID when traced.
func (c *serveClient) request(method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.spans != nil {
		req.Header.Set("X-Request-Id", c.op)
	}
	return req, nil
}

// call sends a request and decodes a 2xx JSON answer into v.
func (c *serveClient) call(method, path string, body []byte, v any) (int, error) {
	req, err := c.request(method, path, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// waitDone reads the job's server-sent events until the "done" frame and
// checks that the job finished successfully.
func (c *serveClient) waitDone(id string) error {
	req, err := c.request(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "done" {
			continue
		}
		var done struct {
			Status serve.JobStatus `json:"status"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &done); err != nil {
			return err
		}
		if done.Status != serve.JobDone {
			return fmt.Errorf("job %s finished %s: %s", id, done.Status, done.Error)
		}
		_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
		return err
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of job %s ended before done", id)
}

// fetchProfile collects a CPU profile of the daemon over its own
// connection and writes it to path.
func fetchProfile(base string, secs int, path string) error {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// getText fetches a URL's body as text.
func getText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return string(data), err
}

// promSum sums the samples of one metric in Prometheus text exposition,
// over the series whose labels contain filter ("" = all series).
func promSum(text, name, filter string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		series, value := line[:i], line[i+1:]
		metric, labels, _ := strings.Cut(series, "{")
		if metric != name || !strings.Contains(labels, filter) {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			sum += v
		}
	}
	return sum
}

// server is a running cmpserved process.
type server struct {
	cmd     *exec.Cmd
	base    string
	start   time.Time
	drained chan struct{} // closed once its standard error hits EOF
	waited  bool
}

// startServer starts cmpserved on an ephemeral port with a fresh cache
// directory and reads the address it listens on. Its request log on
// standard error is drained and discarded.
func startServer(ctx context.Context, bin, cacheDir string) (*server, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, start: time.Now(), drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(stderr)
	for s.base == "" {
		line, err := br.ReadString('\n')
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			s.base, _, _ = strings.Cut(rest, " ")
		}
		if err != nil && s.base == "" {
			close(s.drained)
			s.kill()
			return nil, fmt.Errorf("cmpserved exited before listening: %s", strings.TrimSpace(line))
		}
	}
	go func() {
		io.Copy(io.Discard, br)
		close(s.drained)
	}()
	return s, nil
}

// ready polls /readyz until the daemon answers 200.
func (s *server) ready() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cmpserved not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down with SIGTERM, waits for it to exit, and
// reports its resource usage over its whole life.
func (s *server) stop() (procRun, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return procRun{}, err
	}
	<-s.drained
	s.waited = true
	err := s.cmd.Wait()
	life := time.Since(s.start)
	if err != nil {
		return procRun{}, fmt.Errorf("cmpserved: %v", err)
	}
	rss, cpu := usage(s.cmd.ProcessState)
	return procRun{wall: life, rssMB: rss, cpu: cpu}, nil
}

// kill ends a daemon that stop did not, and waits for it.
func (s *server) kill() {
	if s.waited {
		return
	}
	s.cmd.Process.Kill()
	<-s.drained
	s.waited = true
	s.cmd.Wait()
}
