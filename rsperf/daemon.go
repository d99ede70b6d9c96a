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
	"strconv"
	"strings"
	"time"
)

// daemon is one rsd process started with shipped defaults: an ephemeral
// loopback port and a result store directory, nothing else.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches rsd on storeDir and returns once /healthz answers
// 200, with the launch-to-ready time. rsd's stderr log goes to logPath.
func startDaemon(bin, storeDir, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rsd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, 0, fmt.Errorf("rsd exited before listening (log: %s)", logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("rsd did not report a listen address within 30s (log: %s)", logPath)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("rsd not ready within 30s (log: %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the daemon and waits for it to exit. It is only called with no
// request in flight, and the store writes each record atomically before
// replying, so no graceful drain is needed.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.done
}

// post sends one analyze body and returns the status and response bytes.
func post(ctx context.Context, hc *http.Client, base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU returns the process's user+system CPU time from /proc. A missing
// or malformed sample is an error, never a zero.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("cpu sample: %w", err)
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis start at field 3 (state). utime and stime are fields 14
	// and 15.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, fmt.Errorf("cpu sample: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("cpu sample: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("cpu sample: bad utime/stime in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("rss sample: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || kb <= 0 {
				break
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("rss sample: no VmHWM in /proc/%d/status", pid)
}
