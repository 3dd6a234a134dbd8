package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the provenance every result file carries, so numbers from
// different machines or toolchains are never compared unknowingly.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Start      string  `json:"start"`
	SleepP50US float64 `json:"sleep_1ms_overshoot_p50_us"`
	SleepP99US float64 `json:"sleep_1ms_overshoot_p99_us"`
}

func collectHost(root string, seed int64) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Seed:       seed,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		h.Kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
		h.GitDirty = err != nil || len(st) > 0
	}
	h.SleepP50US, h.SleepP99US = sleepOvershoot()
	return h
}

// sleepOvershoot measures how late time.Sleep(1ms) wakes: the floor under
// every open-loop timing on this host.
func sleepOvershoot() (p50, p99 float64) {
	var over []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		time.Sleep(time.Millisecond)
		over = append(over, float64(time.Since(t)-time.Millisecond)/float64(time.Microsecond))
	}
	return percentile(over, 50), percentile(over, 99)
}

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

func utsString[T int8 | uint8](b []T) string {
	var s strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		s.WriteByte(byte(c))
	}
	return s.String()
}
