package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	placemon "repro"
)

// daemonConfig is a daemon child's configuration: its listen address
// ("127.0.0.1:0" picks a free port) and the facade's server options, of
// which a workload sets only those it names; the rest keep the facade
// defaults. TraceBuffer is set only on traced passes.
type daemonConfig struct {
	Addr string
	placemon.ServerConfig
}

// runDaemon is the daemon child: it listens, prints the bound address,
// and serves the facade's scenario server until its stdin closes. Each
// "heap" line on stdin answers the heap in bytes after one forced GC and
// after a second one, so the parent can read the daemon's memory without
// the program exporting it. The first GC only moves sync.Pool caches to
// their victim caches; the second frees them, and a third changed nothing
// in every measurement, so the second reading is the live heap.
func runDaemon(raw string) error {
	var dc daemonConfig
	if err := json.Unmarshal([]byte(raw), &dc); err != nil {
		return fmt.Errorf("decode config: %w", err)
	}
	ln, err := net.Listen("tcp", dc.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	srv, err := placemon.NewScenarioServer(dc.ServerConfig)
	if err != nil {
		ln.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// EOF means the parent asked us to stop, or died.
		defer cancel()
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			if in.Text() == "heap" {
				var one, two runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&one)
				runtime.GC()
				runtime.ReadMemStats(&two)
				fmt.Printf("heap %d %d\n", one.HeapAlloc, two.HeapAlloc)
			}
		}
	}()
	return srv.Serve(ctx, ln)
}

// daemon is the parent's handle on one daemon child.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	url    string
}

// startDaemon starts a daemon child of bin and waits for its listen
// address.
func startDaemon(bin string, cfg daemonConfig) (*daemon, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), daemonEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(out)}
	line, err := d.stdout.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		d.kill()
		return nil, fmt.Errorf("daemon did not report its address (read %q: %v)", line, err)
	}
	d.url = "http://" + addr
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: timeout}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not healthy after %s (last error %v)", d.url, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime reads the child's CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// heapBytes asks the child for its heap after one forced GC and its live
// heap after a second.
func (d *daemon) heapBytes() (oneGC, live uint64, err error) {
	if _, err := io.WriteString(d.stdin, "heap\n"); err != nil {
		return 0, 0, err
	}
	line, err := d.stdout.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(line, "heap %d %d\n", &oneGC, &live); err != nil {
		return 0, 0, fmt.Errorf("unexpected heap answer %q: %v", line, err)
	}
	return oneGC, live, nil
}

// stop closes the child's stdin, which drains and stops it, and waits;
// a child still running after the drain timeout is killed.
func (d *daemon) stop() error {
	d.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon %s did not stop; killed", d.url)
	}
}

// kill sends SIGKILL and reaps the child.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.stdin.Close()
}

// freePorts picks n loopback ports for daemons that must be started at
// known addresses (cluster peers name each other up front, and a
// restarted node must come back where its peers expect it). Every
// listener stays open until all n ports are picked: a port closed at once
// could be handed out again by the next pick, which gave two nodes the
// same address.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
