package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process wanbench started. Its output is read line by line
// until it exits; stop (or wait) must be called so the process is reaped
// and its readers have ended.
type child struct {
	cmd     *exec.Cmd
	readers sync.WaitGroup
	mu      sync.Mutex
	tail    []string // last lines of stderr, for error reports
}

// startChild starts cmd and calls onStdout and onStderr (either may be
// nil) for each line, stamped with the time it was read. The last lines
// of stderr are also kept for error reports.
func startChild(cmd *exec.Cmd, onStdout, onStderr func(line string, at time.Time)) (*child, error) {
	c := &child{cmd: cmd}
	// If wanbench itself is killed, its children die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cmd.Path, err)
	}
	c.readers.Add(2)
	go c.scan(stdout, onStdout)
	go c.scan(stderr, func(line string, at time.Time) {
		c.mu.Lock()
		c.tail = append(c.tail, line)
		if len(c.tail) > 20 {
			c.tail = c.tail[1:]
		}
		c.mu.Unlock()
		if onStderr != nil {
			onStderr(line, at)
		}
	})
	return c, nil
}

func (c *child) scan(r io.Reader, fn func(string, time.Time)) {
	defer c.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if fn != nil {
			fn(sc.Text(), time.Now())
		}
	}
	_, _ = io.Copy(io.Discard, r) // an over-long line: keep draining so the child never blocks
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// wait reaps the process once its output has ended.
func (c *child) wait() error {
	c.readers.Wait()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w\n%s", c.cmd.Path, err, c.stderrTail())
	}
	return nil
}

// peakRSS returns a live process's peak resident set size in MB (VmHWM).
// rusage's Maxrss cannot stand in for it: a child's Maxrss starts from
// its parent's peak at the fork, so it would report wanbench's own size.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rss is the daemon's peak resident set size so far, in MB.
func (d *daemon) rss() (float64, error) {
	return peakRSS(strconv.Itoa(d.cmd.Process.Pid))
}

// stop sends SIGTERM, kills the process if it has not exited within
// grace, and reaps it.
func (c *child) stop(grace time.Duration) error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited: wait reports it
	exited := make(chan struct{})
	go func() {
		c.readers.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
	}
	return c.wait()
}

// daemon is a running `wanperf serve`.
type daemon struct {
	*child
	base string // http://host:port
}

var listenRE = regexp.MustCompile(`serve: listening on (\S+)`)

// startServe boots `wanperf serve` on an ephemeral loopback port and
// returns once /readyz answers 200.
func startServe(wanperf, registry string, extra ...string) (*daemon, error) {
	args := append([]string{"serve", "-registry", registry, "-addr", "127.0.0.1:0"}, extra...)
	addr := make(chan string, 1)
	c, err := startChild(exec.Command(wanperf, args...), nil, func(line string, _ time.Time) {
		if m := listenRE.FindStringSubmatch(line); m != nil {
			select {
			case addr <- m[1]:
			default:
			}
		}
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{child: c}
	exited := make(chan struct{})
	go func() {
		c.readers.Wait()
		close(exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-exited:
		return nil, fmt.Errorf("wanperf serve exited before listening: %v", c.wait())
	case <-time.After(60 * time.Second):
		_ = c.stop(time.Second)
		return nil, fmt.Errorf("wanperf serve did not listen within 60s:\n%s", c.stderrTail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop(time.Second)
			return nil, fmt.Errorf("wanperf serve not ready within 30s:\n%s", c.stderrTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape reads the daemon's /metrics and sums every sample per family
// name (labels dropped), so serve_shed is the total over reasons.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
