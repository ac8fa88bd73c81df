package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// layers are the repository's packages the per-layer CPU shares are
// charged to, in report order.
var layers = []string{
	"sim", "cache", "cpu", "l2", "coherence", "ring", "l3", "mem",
	"core", "wbpolicy", "system", "trace", "sweep", "serve", "telemetry",
}

// causes are overlapping CPU shares: a sample counts toward a cause when
// any frame of its stack matches one of the cause's prefixes.
var causes = []struct {
	name     string
	prefixes []string
}{
	{"gc", []string{"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*mspan).sweep"}},
	{"maps", []string{"runtime.map", "internal/runtime/maps."}},
	{"json", []string{"encoding/json."}},
	{"flate", []string{"compress/flate."}},
}

// stackSample is one distinct stack of a CPU profile: its sampled time
// in nanoseconds and its frames, innermost first.
type stackSample struct {
	ns     float64
	frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then blocks separated by dashed lines, each holding optional label
// lines, a line with the sampled time and the innermost frame, and one
// line per caller frame.
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlocks, cur = true, nil
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if cur == nil {
			ns, ok := parseSampleTime(fields[0])
			if !ok || len(fields) < 2 {
				continue // a label line ("key:  value") before the time line
			}
			out = append(out, stackSample{ns: ns})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0]) // drop a trailing "(inline)"
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inBlocks {
		return nil, fmt.Errorf("pprof -traces output has no sample blocks")
	}
	return out, nil
}

// parseSampleTime parses a pprof time label such as "10ms" or "1.50s".
func parseSampleTime(s string) (float64, bool) {
	units := []struct {
		suffix string
		ns     float64
	}{{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.ns, err == nil
		}
	}
	return 0, false
}

// layerOf returns the layer a frame belongs to, or "" when the frame is
// not in one of the repository's layer packages.
func layerOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, "cmpcache/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return ""
}

// cpuShares charges every sample to the innermost layer frame on its
// stack, so runtime work a layer causes (allocation, map access, GC
// assists) lands on that layer. A stack with no layer frame is charged
// to "runtime" when every frame is in the Go runtime, else to "other"
// (main packages, net/http, the public cmpcache API). The returned layer
// shares are percentages of all sampled time and sum to 100; the cause
// shares overlap the layers and each other.
func cpuShares(samples []stackSample) (byLayer, byCause map[string]float64) {
	byLayer = make(map[string]float64, len(layers)+2)
	byCause = make(map[string]float64, len(causes))
	var total float64
	for _, s := range samples {
		total += s.ns
		byLayer[chargeTo(s.frames)] += s.ns
		for _, c := range causes {
			if anyFrameHasPrefix(s.frames, c.prefixes) {
				byCause[c.name] += s.ns
			}
		}
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] *= 100 / total
		}
		for k := range byCause {
			byCause[k] *= 100 / total
		}
	}
	return byLayer, byCause
}

func chargeTo(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			return "other"
		}
	}
	return "runtime"
}

func anyFrameHasPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}
