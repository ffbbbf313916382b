package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"hammingmesh/internal/cmdtest"
)

// startHxd launches the daemon and parses startup lines: everything
// before the "hxd listening on" announcement (the journal replay report
// rides there) plus the base URL. The returned process still has its
// stdout drained in the background.
func startHxd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, []string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start hxd: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	var preamble []string
	const marker = "hxd listening on "
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, marker) {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return cmd, "http://" + strings.TrimPrefix(line, marker), preamble
		}
		preamble = append(preamble, line)
	}
	cmd.Process.Kill()
	t.Fatalf("hxd never announced its address; startup output: %q (%v)", preamble, sc.Err())
	return nil, "", nil
}

// Smoke: start the daemon on an ephemeral port, POST the same experiment
// twice (the second must be a byte-identical cache hit), scrape /metrics,
// then SIGTERM it and expect a clean graceful exit.
func TestHxdSmoke(t *testing.T) {
	bin := cmdtest.Build(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start hxd: %v", err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the chosen address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("hxd produced no output: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "hxd listening on "
	if !strings.HasPrefix(line, marker) {
		t.Fatalf("unexpected first line %q", line)
	}
	base := "http://" + strings.TrimPrefix(line, marker)
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	post := func() ([]byte, string) {
		resp, err := http.Post(base+"/v1/experiments", "application/json",
			strings.NewReader(`{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: status %d, body %s", resp.StatusCode, body)
		}
		return body, resp.Header.Get("X-Hxd-Cache")
	}
	body1, cache1 := post()
	body2, cache2 := post()
	if cache1 == "hit" || cache2 != "hit" {
		t.Fatalf("cache statuses = %q, %q; want fresh then hit", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("hit body differs from computed body:\n%s\n%s", body1, body2)
	}
	cmdtest.MustContain(t, string(body1), `"kind":"allreduce"`, `"share"`)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	cmdtest.MustContain(t, string(mb),
		"hxd_cache_hits_total 1",
		"hxd_computations_total 1",
		`hxd_requests_total{kind="allreduce",status="ok"} 2`)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hxd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hxd did not drain within 30s of SIGTERM")
	}
}

// The daemon's durability contract at the process level: a journaled hxd
// that dies by a real process death mid-computation — after accepting a
// request but before its result record lands — loses nothing. The restart
// replays the accepted request through the compute slot, and a later
// SIGKILL + restart rewarms the cache from the journaled result.
func TestHxdJournalKillRestart(t *testing.T) {
	bin := cmdtest.Build(t)
	dir := t.TempDir()
	req := `{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}`

	post := func(base string) (int, []byte, string, error) {
		resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader(req))
		if err != nil {
			return 0, nil, "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header.Get("X-Hxd-Cache"), nil
	}

	// Crash plan: record 1 is the accept, record 2 is the result —
	// torn-write:1 tears the result frame mid-write (one record already
	// durable), exactly the state a SIGKILL mid-computation leaves on disk:
	// recovery truncates the torn result, keeping the accept. The POST
	// never gets its response.
	cmd, base, _ := startHxd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-journal-dir", dir, "-journal-crash", "torn-write:1")
	defer cmd.Process.Kill()
	if _, _, _, err := post(base); err == nil {
		t.Fatalf("POST survived the injected crash")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 3 {
			t.Fatalf("crashed hxd exit: %v, want exit code 3", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hxd did not die at the injected crash point")
	}

	// Restart over the same journal: the accepted request must be pending
	// and replay to completion; the request then serves byte-identically.
	cmd2, base2, preamble := startHxd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-journal-dir", dir)
	defer cmd2.Process.Kill()
	wantReplay := "hxd journal: 0 results rewarmed, 1 pending requests replaying"
	if len(preamble) == 0 || preamble[0] != wantReplay {
		t.Fatalf("restart preamble %q, want %q", preamble, wantReplay)
	}
	code, body1, _, err := post(base2)
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-restart request: %v status %d", err, code)
	}
	// Once the replay has landed, repeats are cache hits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, cache, err := post(base2)
		if err == nil && code == http.StatusOK && cache == "hit" {
			if !bytes.Equal(body, body1) {
				t.Fatalf("replayed body differs:\n%s\n%s", body1, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request never became a cache hit after replay (status %d cache %q err %v)", code, cache, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A real SIGKILL — no drain, no cleanup — then a third restart: the
	// journaled result rewarms the cache, nothing is pending, and the very
	// first request is already a hit.
	cmd2.Process.Kill()
	cmd2.Wait()
	cmd3, base3, preamble3 := startHxd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-journal-dir", dir)
	defer func() {
		cmd3.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd3.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd3.Process.Kill()
		}
	}()
	wantRewarm := "hxd journal: 1 results rewarmed, 0 pending requests replaying"
	if len(preamble3) == 0 || preamble3[0] != wantRewarm {
		t.Fatalf("post-SIGKILL preamble %q, want %q", preamble3, wantRewarm)
	}
	code, body3, cache3, err := post(base3)
	if err != nil || code != http.StatusOK || cache3 != "hit" {
		t.Fatalf("post-SIGKILL request: %v status %d cache %q, want an immediate hit", err, code, cache3)
	}
	if !bytes.Equal(body3, body1) {
		t.Fatalf("rewarmed body differs:\n%s\n%s", body1, body3)
	}
}
