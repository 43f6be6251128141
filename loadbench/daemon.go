package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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

// daemon is the sx4d under test as the generator sees it: where it
// listens and which process to read its costs from. A daemon started
// by boot owns a child process; tests point it at an in-process
// server and their own pid.
type daemon struct {
	url     string
	pid     int
	cmd     *exec.Cmd
	drained chan struct{} // closed when the child's stdout reaches EOF
}

// boot execs the sx4d binary on a free loopback port and returns once
// it has printed its bound address. The child dies with the generator
// (Pdeathsig), so a killed run leaves no daemon behind.
func boot(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("sx4d stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sx4d: %w", err)
	}
	d := &daemon{pid: cmd.Process.Pid, cmd: cmd, drained: make(chan struct{})}
	r := bufio.NewReader(out)
	line, err := r.ReadString('\n')
	// The daemon prints one more line when it stops; keep reading so
	// that write never blocks its drain.
	go func() {
		defer close(d.drained)
		_, _ = io.Copy(io.Discard, r)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "sx4d listening on ")
	if err != nil || !ok {
		d.stop()
		return nil, fmt.Errorf("sx4d did not report its address (read %q: %v)", line, err)
	}
	d.url = "http://" + addr
	return d, nil
}

// stop asks a booted daemon to drain (SIGTERM), kills it if it has not
// exited within five seconds, and waits for it either way. A daemon
// the generator did not start is left alone.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
	d.cmd = nil
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sx4d never became healthy: %w", errors.Join(err, ctx.Err()))
		case <-time.After(time.Millisecond):
		}
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads a process's user+system CPU time, all threads, from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	// After the name: state(3) ... utime(14) stime(15), 1-based.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads a process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
