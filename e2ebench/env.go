package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// fingerprint identifies the machine and the code a result was measured
// on, so results from different machines or revisions are never compared
// as if they were one baseline.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	// GitRev and Dirty ("true" or "false") come from the build's VCS
	// stamp; both are "unknown" when the binary was built outside a git
	// work tree.
	GitRev string `json:"gitRev"`
	Dirty  string `json:"dirty"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		Dirty:      "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.GitRev = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// server serves a swappable handler on a loopback port.
type server struct {
	url     string
	srv     *http.Server
	done    chan struct{}
	handler atomic.Pointer[handlerBox]
}

type handlerBox struct{ http.Handler }

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.set(h)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handler.Load().ServeHTTP(w, r)
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *server) set(h http.Handler) { s.handler.Store(&handlerBox{h}) }

// close stops the server and waits until its serve loop has returned.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// newClient returns an HTTP client holding at most conns connections, one
// per closed-loop client goroutine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

var errStatus = errors.New("non-2xx status")

// post sends body and returns the response body; a non-2xx status is
// returned as an error wrapping errStatus.
func post(c *http.Client, url, contentType string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%w: %s", errStatus, resp.Status)
	}
	return data, nil
}
