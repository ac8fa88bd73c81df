package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// KeyMaterial returns the canonical serialization of the simulation a
// job denotes: the fully materialized configuration (every default
// applied), the complete workload profile (including its seed and the
// effective per-thread reference count). Two jobs with equal material
// are the same deterministic simulation and must produce bit-identical
// results, so the material is safe to use as an exact memoization key.
//
// Canonicalization makes the bytes independent of representation
// accidents: JSON object keys are emitted sorted, so neither Go struct
// field declaration order nor map iteration order can change the
// output, and defaulted job fields hash identically to their explicit
// values because the config is materialized before serialization.
// Trace-replay jobs key on the trace's content identity instead of a
// workload profile: the material is {Config, Trace: FileRef}, where
// FileRef carries the capture's manifest content hash but not its
// path. The struct shape differs from the synthetic material — "Trace"
// vs. "Workload"+"Seed" keys — so a trace replay can never alias the
// synthetic twin it was captured from, and two traces differing in any
// byte hash apart.
func KeyMaterial(j Job) ([]byte, error) {
	if j.TraceFile != "" {
		if j.Workload != "" {
			return nil, fmt.Errorf("sweep: job sets both TraceFile %q and Workload %q", j.TraceFile, j.Workload)
		}
		ref, err := trace.Describe(j.TraceFile)
		if err != nil {
			return nil, err
		}
		return Canonical(struct {
			Config config.Config
			Trace  trace.FileRef
		}{j.Config(), ref})
	}
	prof, err := workload.ByName(j.Workload)
	if err != nil {
		return nil, err
	}
	if j.RefsPerThread > 0 {
		prof.RefsPerThread = j.RefsPerThread
	}
	return Canonical(struct {
		Config   config.Config
		Workload workload.Profile
		Seed     uint64
	}{j.Config(), prof, prof.Seed})
}

// Key returns the canonical content hash of the job's simulation: the
// SHA-256 of KeyMaterial, hex-encoded. The pool deduplicates on this
// key, so jobs that spell the same simulation differently (defaulted
// vs. explicit fields) execute once per sweep.
func Key(j Job) (string, error) {
	m, err := KeyMaterial(j)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(m)
	return hex.EncodeToString(sum[:]), nil
}

// Canonical serializes v as canonical JSON: object keys sorted
// byte-wise, no insignificant whitespace, numbers rendered exactly as
// encoding/json renders them. The result is a pure function of v's
// JSON value — two values that marshal to the same JSON object produce
// identical bytes regardless of field declaration order or map
// iteration order.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // preserve exact numeric spelling; never float-round
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	// Marshal re-emits the decoded tree with its object keys sorted
	// and every json.Number verbatim.
	return json.Marshal(tree)
}

// dedupKey is the pool's in-sweep deduplication key for a job: the
// canonical content hash when the job resolves, or an error-scoped
// fallback so identical invalid jobs still collapse to one failure.
func dedupKey(j Job) string {
	k, err := Key(j)
	if err != nil {
		return fmt.Sprintf("invalid:%s:%v", j, err)
	}
	return k
}
