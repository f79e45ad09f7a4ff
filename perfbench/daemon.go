package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one edgerepd child process serving HTTP on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startDaemon execs bin with args plus -http 127.0.0.1:0 and returns once
// /healthz answers 200, with the time from exec to that first 200. The
// daemon prints its bound address on stdout; stderr goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-http", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "edgerepd: serving on "); ok {
				addr <- a
			}
		}
		// Keep draining until the daemon exits so it never blocks on stdout.
		_, _ = io.Copy(io.Discard, stdout)
		d.exited <- cmd.Wait()
	}()
	const startLimit = 150 * time.Second
	select {
	case d.base = <-addr:
	case err := <-d.exited:
		d.exited <- err
		return nil, 0, fmt.Errorf("edgerepd exited before serving (%v); see %s", err, logPath)
	case <-time.After(startLimit):
		d.kill()
		return nil, 0, fmt.Errorf("edgerepd did not bind within %s; see %s", startLimit, logPath)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > startLimit {
			d.kill()
			return nil, 0, fmt.Errorf("edgerepd /healthz not 200 within %s; see %s", startLimit, logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	err := <-d.exited
	d.exited <- err
}

// metrics fetches /metrics and returns the unlabelled samples by name.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.pid())
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", d.pid())
	}
	return ut + st, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid())
}
