package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"cmpcache/internal/serve"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
)

// inprocJob is a simulation job the traced run repeats in process.
type inprocJob struct {
	job     sweep.Job
	records int64
}

// layerCallReps is how often each cheap layer call (key, cache put and
// gets) repeats per job, so its p95 rests on more than one sample.
const layerCallReps = 25

// inprocess calls the layers' public functions directly on the
// workload's own captures, recording a span around each call, until the
// budget is spent (always at least one job).
func (r *runner) inprocess(jobs []inprocJob, budget time.Duration) {
	start := time.Now()
	for i, j := range jobs {
		if i > 0 && time.Since(start) > budget {
			return
		}
		r.attempt()
		if err := r.inprocJob(j); err != nil {
			r.fail("in-process %s: %v", jobKey(j.job), err)
		}
	}
}

func (r *runner) inprocJob(j inprocJob) error {
	op := r.nextOp("inproc")
	root := r.spans.begin(op, 0, "inproc.job")
	defer r.spans.end(root, j.records)
	call := func(name string, refs int64, f func() error) error {
		sp := r.spans.begin(op, root, name)
		err := f()
		r.spans.end(sp, refs)
		return err
	}

	// Open the capture and drain every thread's stream: framing scan,
	// then batch inflate and delta decode.
	var src *trace.Sharded
	if err := call("trace.open", 0, func() (err error) {
		src, err = trace.OpenSharded(j.job.TraceFile)
		return err
	}); err != nil {
		return err
	}
	var n int64
	err := call("trace.decode", j.records, func() (err error) {
		n, err = drain(src)
		return err
	})
	src.Close()
	if err != nil {
		return err
	}
	if n != j.records {
		return fmt.Errorf("decoded %d records, the manifest holds %d", n, j.records)
	}

	// Replay it on a fresh model.
	if err := call("trace.open", 0, func() (err error) {
		src, err = trace.OpenSharded(j.job.TraceFile)
		return err
	}); err != nil {
		return err
	}
	defer src.Close()
	var sys *system.System
	if err := call("system.new", 0, func() (err error) {
		sys, err = system.NewStream(j.job.Config(), src)
		return err
	}); err != nil {
		return err
	}
	var res *system.Results
	call("system.run", j.records, func() error { res = sys.Run(); return nil })
	if err := checkResults(res, j.records); err != nil {
		return err
	}
	var data []byte
	if err := call("results.marshal", 0, func() (err error) {
		data, err = json.Marshal(res)
		return err
	}); err != nil {
		return err
	}
	if err := r.same(jobKey(j.job), data); err != nil {
		return err
	}

	// Key it and store it the way cmpserved does.
	var key string
	for range layerCallReps {
		if err := call("sweep.key", 0, func() (err error) {
			key, err = sweep.Key(j.job)
			return err
		}); err != nil {
			return err
		}
	}
	opts := serve.CacheOptions{Dir: filepath.Join(r.work, "inproc-cache")}
	cache, err := serve.NewCache(opts)
	if err != nil {
		return err
	}
	for range layerCallReps {
		call("serve.cache_put", 0, func() error { cache.Put(key, data); return nil })
	}
	get := func(c *serve.Cache, name string, want serve.CacheLevel) error {
		return call(name, 0, func() error {
			got, level, ok := c.Get(key)
			if !ok || level != want || !bytes.Equal(got, data) {
				return fmt.Errorf("%s: cache answered level %q (hit %v)", name, level, ok)
			}
			return nil
		})
	}
	for range layerCallReps {
		if err := get(cache, "serve.cache_get_l1", serve.CacheL1); err != nil {
			return err
		}
	}
	// An L2 hit promotes into L1, so each L2 read needs a fresh cache
	// over the same directory: the daemon's restart path.
	for range layerCallReps {
		fresh, err := serve.NewCache(opts)
		if err != nil {
			return err
		}
		if err := get(fresh, "serve.cache_get_l2", serve.CacheL2); err != nil {
			return err
		}
	}
	return nil
}

// drain reads every record of every thread's stream and counts them.
func drain(src trace.Source) (int64, error) {
	var n int64
	for tid := range src.Threads() {
		st := src.Stream(tid)
		for {
			chunk, err := st.NextChunk()
			if err != nil {
				return n, err
			}
			if chunk == nil {
				break
			}
			n += int64(len(chunk))
		}
	}
	return n, nil
}
