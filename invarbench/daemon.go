package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"invarnetx/internal/server/client"
)

// daemon is one invarnetd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // HTTP API host:port
	tcpAddr string // raw binary ingest host:port ("" when off)
	done    chan struct{}
	waitErr error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon boots invarnetd from the model store in dir and returns once
// /healthz answers ok. window > 0 sets the per-stream window; tcp enables the
// raw ingest listener. The daemon's log goes to logPath.
func startDaemon(bin, dir, logPath string, window int, tcp bool) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-models", dir, "-drain-timeout", "5s"}
	d := &daemon{addr: addr, done: make(chan struct{})}
	if tcp {
		if d.tcpAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-ingest-tcp", d.tcpAddr)
	}
	if window > 0 {
		args = append(args, "-window", strconv.Itoa(window))
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// The daemon must not outlive the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers ok, the process exits, or the
// budget runs out. The raw ingest listener opens after the HTTP one, so it
// is probed too.
func (d *daemon) waitReady(budget time.Duration) error {
	c := client.New("http://"+d.addr, nil)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("invarnetd exited during boot: %v", d.waitErr)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := c.Healthz(ctx)
		cancel()
		if err == nil && h.Status == "ok" {
			if d.tcpAddr == "" {
				return nil
			}
			if conn, err := net.Dial("tcp", d.tcpAddr); err == nil {
				conn.Close()
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("invarnetd not ready within budget")
}

// stop kills the daemon and waits for it to exit. The model store is
// scratch, so there is nothing for a graceful drain to persist.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.done
}

// procUsage is a daemon's CPU time and peak resident set.
type procUsage struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM
}

// clkTck is the kernel's USER_HZ, the unit of utime/stime in /proc/pid/stat
// (100 on every mainstream Linux architecture).
const clkTck = 100

func (d *daemon) usage() (procUsage, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	u := procUsage{cpu: time.Duration(ut+st) * time.Second / clkTck}
	sf, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procUsage{}, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb := strings.Fields(v)
			if len(kb) > 0 {
				u.hwmKB, _ = strconv.ParseInt(kb[0], 10, 64)
			}
		}
	}
	return u, nil
}
