package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostFacts describe the machine a result was measured on. They are this
// host's figures, not a storage device's or a CPU model's.
type hostFacts struct {
	Label      string  `json:"label"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	FS         string  `json:"fs"`
	FsyncP50us float64 `json:"fsync_p50_us"`
	FsyncP99us float64 `json:"fsync_p99_us"`
}

// probeHost records nproc, the toolchain, GOMAXPROCS, the filesystem that
// holds the journals, and a raw fsync latency sample taken in dir.
func probeHost(dir string) (hostFacts, error) {
	h := hostFacts{
		Label:      "measured on the host that ran this benchmark; not a device specification",
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		FS:         fsType(dir),
	}
	samples, err := fsyncSample(filepath.Join(dir, "fsync-probe"), 64)
	if err != nil {
		return h, err
	}
	h.FsyncP50us = median(samples)
	h.FsyncP99us = quantile(samples, 0.99)
	return h, nil
}

// fsyncSample appends a small record and fsyncs it n times, returning each
// fsync's latency in µs.
func fsyncSample(path string, n int) ([]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	buf := make([]byte, 256)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			_ = f.Close()
			return nil, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, f.Close()
}

// fsType returns the type of the mount holding dir (longest mount-point
// prefix in /proc/self/mounts), or "unknown".
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fmt.Sprintf("%s (%s)", f[2], mp)
		}
	}
	return typ
}
