package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one pmkvd subprocess.
type server struct {
	cmd   *exec.Cmd
	addr  string // client listener
	admin string // admin HTTP listener ("" unless started with one)

	mu     sync.Mutex
	stdout bytes.Buffer
	stderr bytes.Buffer
	done   chan struct{} // closed once stdout hits EOF
}

// startServer launches pmkvd on loopback ports the kernel picks and
// waits until it reports its listener.
func startServer(bin string, admin bool, extra ...string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-shards", "4"}
	if admin {
		args = append(args, "-admin", "127.0.0.1:0")
	}
	args = append(args, extra...)
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	s.cmd.Stderr = &lockedWriter{mu: &s.mu, w: &s.stderr}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pmkvd: %w", err)
	}
	ready := make(chan error, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stdout.WriteString(line + "\n")
			s.mu.Unlock()
			if a, ok := field(line, "pmkvd: admin endpoint on http://"); ok {
				s.admin = a
			}
			if a, ok := field(line, "pmkvd: serving on "); ok && !sent {
				s.addr = a
				sent = true
				ready <- nil
			}
		}
		if !sent {
			ready <- fmt.Errorf("pmkvd exited before serving: %s", s.errText())
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pmkvd did not start within 60s")
	}
	return s, nil
}

// field returns the first space-delimited token after prefix.
func field(line, prefix string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	rest := line[len(prefix):]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (s *server) errText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

func (s *server) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", s.addr, 10*time.Second)
}

// cpuSeconds is the server's user+system CPU so far, from /proc.
func (s *server) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, which Linux fixes at 100 on every architecture
// the toolchain supports.
const clockTicks = 100

// drainResult is what SIGTERM → exit reported.
type drainResult struct {
	Seconds float64
	RSSMB   float64 // peak resident set over the server's life
}

// drain sends SIGTERM and waits for the exit, requiring the drain
// report's recovery-invariants line and a zero exit status.
func (s *server) drain() (drainResult, error) {
	t := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return drainResult{}, fmt.Errorf("signal pmkvd: %w", err)
	}
	waited := make(chan error, 1)
	go func() {
		<-s.done
		waited <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-waited:
	case <-time.After(120 * time.Second):
		_ = s.cmd.Process.Kill() // the waiter goroutine reaps it
		<-waited
		return drainResult{}, fmt.Errorf("pmkvd did not drain within 120s")
	}
	res := drainResult{Seconds: time.Since(t).Seconds()}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024
	}
	s.mu.Lock()
	out := s.stdout.String()
	s.mu.Unlock()
	if err != nil {
		return res, fmt.Errorf("pmkvd drain: %v: %s", err, s.errText())
	}
	if !strings.Contains(out, "recovery invariants: OK") {
		return res, fmt.Errorf("pmkvd drain report lacks 'recovery invariants: OK':\n%s", out)
	}
	return res, nil
}

// kill stops the process if it is still running and reaps it.
func (s *server) kill() {
	if s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Kill() // already-exited is fine; Wait reaps either way
	<-s.done
	_ = s.cmd.Wait()
}

// scrape reads the fast-path share from /metrics and the mean group
// commit size from /statz.
func (s *server) scrape() (fastHitRatio, batchMean float64, err error) {
	if s.admin == "" {
		return 0, 0, fmt.Errorf("pmkvd started without an admin listener")
	}
	body, err := httpGet("http://" + s.admin + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	var hits, falls float64
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch {
		case strings.HasPrefix(f[0], "pmkv_read_fast_hits_total{"):
			hits += v
		case strings.HasPrefix(f[0], "pmkv_read_fallback_total{"):
			falls += v
		}
	}
	if hits+falls > 0 {
		fastHitRatio = hits / (hits + falls)
	}
	body, err = httpGet("http://" + s.admin + "/statz")
	if err != nil {
		return 0, 0, err
	}
	var st struct {
		Shards []struct {
			Batches  float64 `json:"batches"`
			AvgBatch float64 `json:"avg_batch"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return 0, 0, fmt.Errorf("statz: %w", err)
	}
	var ops, batches float64
	for _, sh := range st.Shards {
		ops += sh.AvgBatch * sh.Batches
		batches += sh.Batches
	}
	if batches > 0 {
		batchMean = ops / batches
	}
	return fastHitRatio, batchMean, nil
}

func httpGet(url string) (string, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(b), nil
}
