package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"cmpcache/internal/serve"
)

// TestBootSubmitShutdown boots the daemon on an ephemeral port, submits
// a small job over HTTP, polls it to completion, and shuts the server
// down gracefully.
func TestBootSubmitShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serveMain(ctx, "127.0.0.1:0", serve.Options{
			CacheDir: t.TempDir(),
			Workers:  1,
		}, 30*time.Second, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	body := `{"jobs":[{"Workload":"tp","Mechanism":"base","RefsPerThread":2000}]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("submit decode: %v (%d jobs)", err, len(sub.Jobs))
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.Jobs[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == serve.JobDone {
			break
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job ended %s: %s", v.Status, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveMain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("graceful shutdown did not complete")
	}
}

// TestRejectsKnobFlags: the daemon registers no policy knob flags (each
// submitted job carries its own knobs), so every knob flag of cmpsim
// and cmpsweep fails the daemon's parse with exit status 2. The test
// re-runs its own binary as the daemon; the trailing -log value is
// invalid, so a flag that parsed would still exit before listening.
func TestRejectsKnobFlags(t *testing.T) {
	if args := os.Getenv("CMPSERVED_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cmpserved"}, strings.Fields(args)...)
		main()
		return
	}
	for _, f := range []string{"-wbht-entries=5", "-snarf-entries=5", "-reuse-entries=5",
		"-reuse-max-distance=5", "-hybrid-entries=5", "-hybrid-threshold=5",
		"-no-retry-switch", "-global-wbht"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRejectsKnobFlags$")
		cmd.Env = append(os.Environ(), "CMPSERVED_TEST_ARGS="+f+" -log bogus")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		name, _, _ := strings.Cut(f, "=")
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: "+name) {
			t.Errorf("cmpserved %s: err %v, output:\n%s", f, err, out)
		}
	}
}
