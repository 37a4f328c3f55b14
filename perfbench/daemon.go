package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running streamhistd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error // receives cmd.Wait's result once
	gone bool       // the process has exited and been waited for
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts streamhistd with the workload's flags on dataDir
// and waits until /readyz answers 200. The daemon dies with the
// benchmark process (Pdeathsig), so an interrupted run leaves nothing
// running.
func startDaemon(bin string, w *workload, dataDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(dataDir), "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, w.daemonFlags(addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting streamhistd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz every millisecond until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("streamhistd exited during start-up: %v (see daemon.log)", err)
		default:
		}
		resp, err := c.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("streamhistd not ready after %v", limit)
}

// stop shuts the daemon down gracefully (SIGTERM: drain, final
// checkpoint) and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		d.gone = true
		d.log.Close()
		if err != nil {
			return fmt.Errorf("streamhistd shutdown: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("streamhistd did not shut down within 60s")
	}
}

// kill ends the daemon with SIGKILL, the crash of the recovery phase,
// and waits for it to exit. It is a no-op on a daemon that has exited.
func (d *daemon) kill() {
	if d == nil || d.gone {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.gone = true
	d.log.Close()
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// checkpointBytes sums the newest checkpoint file of every shard stripe.
func checkpointBytes(dataDir string) (int64, error) {
	var total int64
	for s := 0; s < shards; s++ {
		names, err := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("shard-%04d", s), "checkpoint-*"))
		if err != nil {
			return 0, err
		}
		if len(names) == 0 {
			return 0, fmt.Errorf("shard %d has no checkpoint", s)
		}
		newest := names[len(names)-1] // names carry a zero-padded hex position
		fi, err := os.Stat(newest)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
