package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// server is one pvserve process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:<port>
	exited chan struct{} // closed once the process has been waited for
	err    error         // the wait result, valid after exited closes
	hc     *http.Client  // set-up and /stats traffic, on its own connection
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

// newClient returns an HTTP client that keeps exactly one loopback
// connection and never consults proxy settings.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// startServer execs pvserve on a fresh loopback port with extra flags,
// logging to logPath. The process is killed if this one dies first.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), hc: newClient()}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// pid returns the process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// waitListening polls GET /stats until pvserve answers, failing early if
// the process exits.
func (s *server) waitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := s.hc.Get(s.base + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("pvserve exited during start-up: %v", s.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pvserve not listening after %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// compileSchemas makes pvserve compile (or rehydrate) every workload
// schema, with one single-document check per schema.
func (s *server) compileSchemas(schemas []*schemaDef) error {
	for _, sc := range schemas {
		body, err := json.Marshal(map[string]string{"schema": sc.src, "root": sc.root, "document": "<" + sc.root + "/>"})
		if err != nil {
			return err
		}
		if _, err := s.call(http.MethodPost, "/check", body, http.StatusOK); err != nil {
			return fmt.Errorf("compiling schema %s: %w", sc.name, err)
		}
	}
	return nil
}

// call sends one request on the set-up client and returns the reply body,
// failing unless the status is want.
func (s *server) call(method, path string, body []byte, want int) ([]byte, error) {
	return do(s.hc, method, s.base+path, body, nil, want)
}

// do sends one request and reads the whole reply, failing on a transport
// error or a status other than want.
func do(hc *http.Client, method, url string, body []byte, header http.Header, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, req.URL.Path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// statsSnapshot is the subset of GET /stats the per-layer metrics use.
type statsSnapshot struct {
	Registry struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Compiles  int64 `json:"compiles"`
		DiskLoads int64 `json:"diskLoads"`
	} `json:"registry"`
	Engine struct {
		Docs              int64 `json:"docs"`
		FastPathHits      int64 `json:"fastPathHits"`
		FastPathFallbacks int64 `json:"fastPathFallbacks"`
	} `json:"engine"`
}

func (s *server) stats() (statsSnapshot, error) {
	var st statsSnapshot
	data, err := s.call(http.MethodGet, "/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// stop sends SIGTERM (pvserve drains and closes its WAL) and waits for the
// process to end, killing it if the drain takes longer than 20s.
func (s *server) stop() error {
	s.hc.CloseIdleConnections()
	select {
	case <-s.exited:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("pvserve did not drain within 20s; killed")
	}
	var ee *exec.ExitError
	if s.err != nil && !errors.As(s.err, &ee) {
		return s.err
	}
	return nil
}

// setupRestarts is how many times set-up is timed per run; setup_s is
// their median.
const setupRestarts = 21

// setUp brings pvserve to the state the measured phase needs and times it:
// setupRestarts times it execs pvserve, waits until it listens and has
// compiled (or rehydrated) every workload schema, and stops all but the
// last start. A durable workload first primes its cache directory, untimed,
// with finished jobs, so each timed start rehydrates schemas from disk and
// replays a non-empty WAL.
func setUp(bin, dir string, w *workload) (*server, []float64, error) {
	var extra []string
	if w.durable {
		extra = []string{"-cache-dir", filepath.Join(dir, "cache")}
		if err := prime(bin, dir, w, extra); err != nil {
			return nil, nil, fmt.Errorf("priming: %w", err)
		}
	}
	var times []float64
	for {
		start := time.Now()
		s, err := startServer(bin, filepath.Join(dir, fmt.Sprintf("pvserve-%d.log", len(times))), extra...)
		if err != nil {
			return nil, nil, err
		}
		if err = s.waitListening(30 * time.Second); err == nil {
			err = s.compileSchemas(w.schemas)
		}
		if err != nil {
			_ = s.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) == setupRestarts {
			return s, times, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// prime fills a durable workload's cache directory: compiled schemas on
// disk and one finished, retained job per request body in the WAL.
func prime(bin, dir string, w *workload, extra []string) error {
	s, err := startServer(bin, filepath.Join(dir, "pvserve-prime.log"), extra...)
	if err != nil {
		return err
	}
	defer s.stop()
	if err := s.waitListening(30 * time.Second); err != nil {
		return err
	}
	if err := s.compileSchemas(w.schemas); err != nil {
		return err
	}
	for _, r := range w.reqs {
		if _, _, _, err := runJob(s.hc, s.base, r.body); err != nil {
			return err
		}
	}
	return s.stop()
}
