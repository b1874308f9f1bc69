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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one ccserved child process.
type node struct {
	name string
	addr string // base URL
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode spawns ccserved listening on port with args; its output goes
// to a log file in the run directory.
func startNode(cfg *config, name string, port int, args ...string) (*node, error) {
	logf, err := os.Create(filepath.Join(cfg.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
	cmd := exec.Command(cfg.bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child should this process die without
	// stopping it, for example when it is killed on a timeout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	n := &node{name: name, addr: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	cfg.track(n)
	return n, nil
}

// waitHealthy polls /healthz until it answers 200.
func (n *node) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-n.done:
			return fmt.Errorf("%s exited before answering /healthz (log: %s)", n.name, n.log.Name())
		default:
		}
		if resp, err := c.Get(n.addr + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer /healthz within 30s", n.name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process gracefully (SIGTERM drains and closes the
// repository) and waits for it; kill ends it at once.
func (n *node) stop() { n.end(syscall.SIGTERM) }
func (n *node) kill() { n.end(syscall.SIGKILL) }

func (n *node) end(sig syscall.Signal) {
	select {
	case <-n.done:
	default:
		n.cmd.Process.Signal(sig)
		select {
		case <-n.done:
		case <-time.After(15 * time.Second):
			n.cmd.Process.Kill()
			<-n.done
		}
	}
	n.log.Close()
}

// procCPU returns the CPU time (user+system) of child process pid. /proc
// reports it in clock ticks of 10ms.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(data, ')')
	if i < 0 || i+2 > len(data) {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+2:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procHWM returns the peak resident set (VmHWM) of process pid in MB, 0
// meaning this process.
func procHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}

// usage sums CPU time and peak RSS over nodes.
func usage(nodes []*node) (cpu time.Duration, hwmMB float64, err error) {
	for _, n := range nodes {
		c, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		h, err := procHWM(n.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		hwmMB += h
	}
	return cpu, hwmMB, nil
}

// newClient is the load generator's HTTP client: one keep-alive
// connection per node, no retries, no compression.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	ms     float64 // from sending the request to reading the last body byte
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/xml")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data, ms: ms(time.Since(start))}, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	r, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, r.status, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// scrape reads a node's /metrics exposition into name -> value.
func scrape(c *http.Client, n *node) (map[string]float64, error) {
	r, err := do(c, http.MethodGet, n.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// copyDir copies the regular files of src into dst recursively.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
