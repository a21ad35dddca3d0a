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
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the two programs under test, built from the checkout.
type binaries struct {
	bench  string // cmd/pimnetbench
	daemon string // cmd/pimnetd
}

// buildBinaries builds cmd/pimnetbench and cmd/pimnetd from the module at
// root into dir. The build is not timed; go's own cache makes a rebuild of
// unchanged sources a no-op.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", dir+string(os.PathSeparator),
		"./cmd/pimnetbench", "./cmd/pimnetd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("building the programs under test: %v\n%s", err, out)
	}
	return binaries{bench: filepath.Join(dir, "pimnetbench"), daemon: filepath.Join(dir, "pimnetd")}, nil
}

// children tracks every process the harness starts, so that each exit path
// (error, timeout or signal) can wait for all of them to end. Processes are
// started with exec.CommandContext, so cancelling the run's context kills
// them; children.Wait then blocks until every one has been reaped.
var children sync.WaitGroup

// configure applies the harness's process hygiene to cmd: the child is
// killed if the harness itself dies, and a cancelled context escalates to
// SIGKILL after a short grace.
func configure(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
}

// logBuffer is a goroutine-safe, size-capped capture of a child's output,
// attached to the result when something fails.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const maxLog = 64 << 10

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if room := maxLog - l.buf.Len(); room > 0 {
		if len(p) > room {
			l.buf.Write(p[:room])
		} else {
			l.buf.Write(p)
		}
	}
	return len(p), nil
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// daemon is one running pimnetd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	log    *logBuffer
	exited chan struct{}
	err    error // exit status, valid once exited is closed
}

// launchDaemon starts pimnetd on an ephemeral loopback port and returns once
// /healthz answers 200, along with the time from process start to that
// first 200 (the daemon's set-up time).
func launchDaemon(ctx context.Context, bin string, args ...string) (*daemon, time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	configure(cmd)
	d := &daemon{cmd: cmd, log: &logBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = d.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting pimnetd: %w", err)
	}
	children.Add(1)
	addr := make(chan string, 1)
	go func() {
		defer children.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.log, line)
			if _, url, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- url:
				default:
				}
			}
		}
		io.Copy(d.log, stdout) // drain a line too long for the scanner
		d.err = cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("pimnetd exited before listening: %v\n%s", d.err, d.log)
	case <-ctx.Done():
		<-d.exited
		return nil, 0, ctx.Err()
	}
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("pimnetd exited before /healthz answered: %v\n%s", d.err, d.log)
		case <-ctx.Done():
			<-d.exited
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within the grace is killed. It reports a non-zero exit
// (an unclean drain) as an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("pimnetd did not drain within 20s\n%s", d.log)
	}
	if d.err != nil {
		return fmt.Errorf("pimnetd exit: %v\n%s", d.err, d.log)
	}
	return nil
}

// diedOfTerm reports whether the daemon exited by the SIGTERM stop sent
// rather than through its drain. pimnetd installs its signal handler only
// after it starts answering /healthz, so a daemon stopped right after it
// came up can die this way; for a daemon that never served a request that
// loses nothing.
func (d *daemon) diedOfTerm() bool {
	ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// kill ends the daemon without a drain (error paths).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTick = 100

// cpu returns the process's user+system CPU time so far: utime+stime from
// /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	pid := d.cmd.Process.Pid
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// peakRSSMB returns the process's peak resident set in MB: VmHWM from
// /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	pid := d.cmd.Process.Pid
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// procRun is the outcome of one short-lived process.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
	stderr string
}

// runProcess runs bin to completion, capturing its output and resource use.
func runProcess(ctx context.Context, bin string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	configure(cmd)
	var out bytes.Buffer
	errLog := &logBuffer{}
	cmd.Stdout, cmd.Stderr = &out, errLog
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, err
	}
	children.Add(1)
	err := cmd.Wait()
	wall := time.Since(start)
	children.Done()
	r := procRun{wall: wall, stdout: out.Bytes(), stderr: errLog.String()}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // ru_maxrss is in KB on Linux
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, r.stderr)
	}
	return r, nil
}
