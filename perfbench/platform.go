package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fingerprint describes the machine a result was measured on, so a
// number is only ever compared against one from the same machine class.
func fingerprint(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"wal_fs":     fsType(cfg.workdir),
		"transport":  "HTTP/1.1 keep-alive over 127.0.0.1 loopback (serve-http); in-process calls otherwise",
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/self/mountinfo that contains it.
func fsType(dir string) string {
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint options... - fstype source superopts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), tail[0]
		}
	}
	return typ
}

// loopbackRTT times n round trips to a no-op handler over a keep-alive
// loopback connection: the floor under every serve-http latency.
func loopbackRTT(n int) ([]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr}
	url := "http://" + ln.Addr().String() + "/"
	var samples []float64
	for i := 0; i < n && err == nil; i++ {
		start := time.Now()
		var resp *http.Response
		resp, err = client.Get(url)
		if err != nil {
			break
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		resp.Body.Close()
		samples = append(samples, ms(time.Since(start)))
	}
	tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-done
	return samples, err
}

// fsyncProbe times n raw 4 KiB write+fsync pairs on a file in dir: the
// floor under every durable operation.
func fsyncProbe(dir string, n int) ([]float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return nil, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("fsync probe: %w", err)
		}
		samples = append(samples, ms(time.Since(start)))
	}
	return samples, nil
}
