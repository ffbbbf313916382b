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
// before the "hxd listening on" announcement (the journal rewarm report
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

// The daemon's durability contract at the process level. A journaled hxd
// that dies by a real process death while writing a result loses only
// that result: the restart re-runs nothing, and the client's retry
// computes the request fresh. A later SIGKILL + restart loads the
// journaled result back into the cache.
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

	// Crash plan: the first record is the request's result, and
	// torn-write:0 tears it mid-write, so the POST never gets its response
	// and recovery truncates the torn frame away.
	cmd, base, _ := startHxd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-journal-dir", dir, "-journal-crash", "torn-write:0")
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

	// Restart over the same journal: nothing was journaled, and the retry
	// computes the request fresh.
	cmd2, base2, preamble := startHxd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-journal-dir", dir)
	defer cmd2.Process.Kill()
	wantEmpty := "hxd journal: 0 results rewarmed"
	if len(preamble) == 0 || preamble[0] != wantEmpty {
		t.Fatalf("restart preamble %q, want %q", preamble, wantEmpty)
	}
	code, body1, cache1, err := post(base2)
	if err != nil || code != http.StatusOK || cache1 != "miss" {
		t.Fatalf("retry after the crash: %v status %d cache %q, want a fresh miss", err, code, cache1)
	}

	// A real SIGKILL — no drain, no cleanup — then a third restart: the
	// journaled result rewarms the cache, and the very first request is
	// already a hit.
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
	wantRewarm := "hxd journal: 1 results rewarmed"
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
