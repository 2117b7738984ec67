package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fingerprint describes the host a result was measured on. It is printed
// as its own JSON line ahead of the result line.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	WALFS      string  `json:"wal_fs"`
	FsyncP50us float64 `json:"fsync_p50_us,omitempty"`
	// Speed is the window's host speed, Stolen the share of busy CPU time
	// the hypervisor stole, and Raw the end-to-end times before their
	// conversion to reference time (calib.go).
	Speed  float64            `json:"speed,omitempty"`
	Stolen float64            `json:"stolen"`
	Raw    map[string]float64 `json:"raw,omitempty"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		WALFS:      "none",
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Filesystem magic numbers from statfs(2).
const (
	tmpfsMagic = 0x01021994
	ramfsMagic = 0x858458f6
	ext4Magic  = 0xef53
	xfsMagic   = 0x58465342
	btrfsMagic = 0x9123683e
	ovlMagic   = 0x794c7630
)

// filesystem names the filesystem holding dir and reports whether fsync on
// it reaches a device.
func filesystem(dir string) (name string, durable bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint64(st.Type) {
	case tmpfsMagic:
		return "tmpfs", false, nil
	case ramfsMagic:
		return "ramfs", false, nil
	case ext4Magic:
		return "ext4", true, nil
	case xfsMagic:
		return "xfs", true, nil
	case btrfsMagic:
		return "btrfs", true, nil
	case ovlMagic:
		return "overlayfs", true, nil
	}
	return fmt.Sprintf("0x%x", uint64(st.Type)), true, nil
}

// fsyncCalibration times raw 4 KiB write+fsync pairs on a scratch file in
// dir and returns the median in microseconds. It tells a slow disk from a
// slow program when control-plane results move between hosts or runs.
func fsyncCalibration(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-calibration")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	block := make([]byte, 4096)
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		samples = append(samples, us(time.Since(t0)))
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return pct(samples, 50), nil
}
