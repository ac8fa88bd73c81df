package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
)

// TestKeyDefaultVsExplicit proves that spelling a default explicitly
// cannot change the hash: the material is the materialized config, not
// the raw job fields.
func TestKeyDefaultVsExplicit(t *testing.T) {
	cases := []struct {
		name string
		a, b Job
	}{
		{
			name: "outstanding default is 6",
			a:    Job{Workload: "tp", Mechanism: config.WBHT},
			b:    Job{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6},
		},
		{
			name: "wbht entries default is 32768",
			a:    Job{Workload: "tp", Mechanism: config.WBHT},
			b:    Job{Workload: "tp", Mechanism: config.WBHT, Knobs: config.Knobs{WBHTEntries: 32768}},
		},
		{
			name: "combined tables default to the halved 16384",
			a:    Job{Workload: "trade2", Mechanism: config.Combined},
			b:    Job{Workload: "trade2", Mechanism: config.Combined, Knobs: config.Knobs{WBHTEntries: 16384, SnarfEntries: 16384}},
		},
	}
	for _, tc := range cases {
		ka, err := Key(tc.a)
		if err != nil {
			t.Fatalf("%s: Key(a): %v", tc.name, err)
		}
		kb, err := Key(tc.b)
		if err != nil {
			t.Fatalf("%s: Key(b): %v", tc.name, err)
		}
		if ka != kb {
			t.Errorf("%s: keys differ:\n a %s\n b %s", tc.name, ka, kb)
		}
	}
}

// TestKeySensitivity proves the hash separates jobs that actually are
// different simulations.
func TestKeySensitivity(t *testing.T) {
	base := Job{Workload: "tp", Mechanism: config.WBHT}
	variants := []Job{
		{Workload: "trade2", Mechanism: config.WBHT},
		{Workload: "tp", Mechanism: config.Snarf},
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 1},
		{Workload: "tp", Mechanism: config.WBHT, Knobs: config.Knobs{WBHTEntries: 512}},
		{Workload: "tp", Mechanism: config.WBHT, Knobs: config.Knobs{NoSwitch: true}},
		{Workload: "tp", Mechanism: config.WBHT, RefsPerThread: 777},
	}
	kb, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]Job{kb: base}
	for _, v := range variants {
		k, err := Key(v)
		if err != nil {
			t.Fatalf("Key(%s): %v", v, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("jobs %s and %s collide on %s", prev, v, k)
		}
		seen[k] = v
	}
}

// TestKeyUnknownWorkload proves a bad job fails loudly instead of
// hashing to something.
func TestKeyUnknownWorkload(t *testing.T) {
	if _, err := Key(Job{Workload: "nope"}); err == nil {
		t.Fatal("Key(unknown workload) succeeded")
	}
}

// TestCanonicalFieldOrder proves struct field declaration order cannot
// change the canonical bytes: two types with identical JSON fields in
// opposite declaration order serialize identically.
func TestCanonicalFieldOrder(t *testing.T) {
	type ab struct {
		Alpha int    `json:"alpha"`
		Beta  string `json:"beta"`
	}
	type ba struct {
		Beta  string `json:"beta"`
		Alpha int    `json:"alpha"`
	}
	ca, err := Canonical(ab{Alpha: 3, Beta: "x"})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonical(ba{Beta: "x", Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("field order changed canonical bytes:\n %s\n %s", ca, cb)
	}
	want := `{"alpha":3,"beta":"x"}`
	if string(ca) != want {
		t.Errorf("canonical = %s, want %s", ca, want)
	}
}

// TestCanonicalMapIteration proves map iteration order cannot change
// the canonical bytes: a many-keyed map canonicalizes identically
// across repeated serializations (Go randomizes map iteration, so an
// order dependence would flake immediately at this count).
func TestCanonicalMapIteration(t *testing.T) {
	m := map[string]int{}
	for c := 'a'; c <= 'z'; c++ {
		m[string(c)] = int(c)
	}
	first, err := Canonical(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		again, err := Canonical(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("iteration %d: canonical bytes changed:\n %s\n %s", i, first, again)
		}
	}
}

// TestCanonicalNumbersExact proves canonicalization never re-rounds
// numbers through float64 (large uint64s and seeds survive exactly).
func TestCanonicalNumbersExact(t *testing.T) {
	v := struct {
		Seed uint64
	}{Seed: 1<<63 + 12345}
	c, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Seed":9223372036854788153}`
	if string(c) != want {
		t.Errorf("canonical = %s, want %s", c, want)
	}
}

// TestKeyPinned pins the literal content hash of a few synthetic jobs.
// Key bytes name every cmpserved disk-cache file, so a change to the
// key material or to Canonical's encoding would orphan every cached
// result; no other test sees the bytes themselves.
func TestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		job  Job
		want string
	}{
		{Job{Workload: "tp", Mechanism: config.Baseline},
			"feb36e6f1fb7ffcdbbb23a7e63a953b6b85c62c045ce213e5c16b3153b17d1f9"},
		{Job{Workload: "trade2", Mechanism: config.Combined, Outstanding: 6},
			"af68381ef1f6c69ae915e9d06710ab0cef0d6cd0730ee5b9aa7f59acee2acd24"},
		{Job{Workload: "cpw2", Mechanism: config.WBHT, Knobs: config.Knobs{WBHTEntries: -1}},
			"235dfd3bd7ba6885c00859331c9c2615100b8e7943dfd5a2f8f4df4991d0a99c"},
		{Job{Workload: "notesbench", Mechanism: config.ReuseDist, Outstanding: 1, Knobs: config.Knobs{ReuseMaxDist: 100}},
			"ee057cb6d7cb56e31b991dde01b02918211671c4e225341da4dd7b4624c24b34"},
		{Job{Workload: "tp", Mechanism: config.HybridUI, Outstanding: 6, Knobs: config.Knobs{HybridThreshold: 3}},
			"d32d9208b253262259aad82b7c5910d2f4098fa9ec268655350b2738ce71ba98"},
		{Job{Workload: "trade2", Mechanism: config.Snarf, Knobs: config.Knobs{GlobalWBHT: true}},
			"9b8dc0378158870b2ea0c7d58b6e44253cd5ecb0f1dc6124c66e5307c5938fc8"},
		{Job{Workload: "tp", Mechanism: config.WBHT, Knobs: config.Knobs{LinesPerEntry: 4}, RefsPerThread: 1234},
			"9ed5c28e11502910bf805a39697eeace9b066f0c964ac310c178c8b3ecf746f1"},
	} {
		got, err := Key(c.job)
		if err != nil {
			t.Fatalf("%s: %v", c.job, err)
		}
		if got != c.want {
			t.Errorf("Key(%s) = %s, want %s", c.job, got, c.want)
		}
	}
}

// TestCanonicalEscapesAndNumbers pins Canonical's bytes where a
// hand-written encoder could drift from encoding/json: HTML-escaped and
// non-ASCII keys and strings, and exponent-form numbers, which pass
// through verbatim.
func TestCanonicalEscapesAndNumbers(t *testing.T) {
	v := map[string]any{
		"b<&>":    "x<y>&z",
		"a\u00e9": "\u00e9\u2028\"q\"",
		"n":       json.RawMessage(`[1e3,1e21,-0.5]`),
	}
	c, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"aé":"é\u2028\"q\"","b\u003c\u0026\u003e":"x\u003cy\u003e\u0026z","n":[1e3,1e21,-0.5]}`
	if string(c) != want {
		t.Errorf("canonical = %s\nwant        %s", c, want)
	}
}

// TestDedupByContentHash proves the pool collapses jobs that spell the
// same simulation differently: only one executes, the other reports
// Cached.
func TestDedupByContentHash(t *testing.T) {
	jobs := []Job{
		{Workload: "tp", Mechanism: config.WBHT},                 // defaults
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6}, // explicit default
	}
	var runs int
	results := Run(context.Background(), jobs, Options{
		Workers: 1,
		Run: func(ctx context.Context, j Job) (*system.Results, error) {
			runs++
			return &system.Results{Cycles: 42}, nil
		},
	})
	if runs != 1 {
		t.Fatalf("executed %d simulations, want 1 (content-hash dedup)", runs)
	}
	if !results[0].Cached && !results[1].Cached {
		t.Fatal("neither result marked Cached")
	}
	for i, r := range results {
		if r.Err != nil || r.Results == nil || r.Results.Cycles != 42 {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
}
