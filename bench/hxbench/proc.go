package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stepTimeout bounds one CLI process, so a hung step fails the run
// instead of outliving it.
const stepTimeout = 150 * time.Second

// buildBinaries brings the three programs the end-to-end runs drive up to
// date. Every set-up starts with it: the first in a fresh checkout
// compiles them, later ones find the build cache current.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/hxd", "./cmd/hxsim", "./cmd/hxalloc")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the programs: %v\n%s", err, out)
	}
	return nil
}

// procRun is one finished CLI process.
type procRun struct {
	wall  time.Duration
	rssMB float64
	out   []byte
	err   error
}

// runProc runs one CLI process to completion in dir.
func runProc(dir, bin string, args []string) procRun {
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(start), out: out.Bytes()}
	r.rssMB = maxRSSMB(cmd)
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err,
			strings.TrimSpace(stderr.String()))
	}
	return r
}

// maxRSSMB is the peak resident set of an exited process, in MB.
func maxRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// daemon is a running hxd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// startDaemon launches hxd on an ephemeral port and waits until /healthz
// answers.
func startDaemon(bin, dir string, workers int) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	d.cmd.Dir = dir
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hxd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// The first line announces the address; the rest is drained so
		// hxd never blocks on a full pipe, then the process is reaped.
		rd := bufio.NewReader(stdout)
		line, _ := rd.ReadString('\n')
		addr <- strings.TrimSpace(strings.TrimPrefix(line, "hxd listening on "))
		io.Copy(io.Discard, rd)
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		if a == "" {
			d.stop()
			return nil, fmt.Errorf("hxd did not announce its address: %s", d.stderr.String())
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("hxd did not start within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("hxd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains hxd with SIGTERM (SIGKILL after a grace period) and waits
// for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// rssEvery is how often watchRSS samples hxd's resident set.
const rssEvery = 5 * time.Millisecond

// watchRSS samples hxd's resident set until the returned function is
// called; that function returns the largest sample, in MB (0 when
// /proc/<pid>/status could not be read). hxd's peak over its whole life
// would depend on how many passes a run fits in; the peak of each pass
// does not.
func (d *daemon) watchRSS() (peak func() float64) {
	done, out := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		hi := 0.0
		for {
			hi = max(hi, d.rssMB())
			select {
			case <-tick.C:
			case <-done:
				out <- max(hi, d.rssMB())
				return
			}
		}
	}()
	return func() float64 { close(done); return <-out }
}

// rssMB reads hxd's current resident set (VmRSS) in MB; 0 if unreadable.
func (d *daemon) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" && f[2] == "kB" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// metrics scrapes hxd's /metrics.
func (d *daemon) metrics() (series, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return scrape(string(b)), nil
}
