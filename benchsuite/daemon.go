package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"rayfade/internal/server"
)

// connections bounds the load generator: at most this many requests are in
// flight, over at most this many HTTP connections, from as many sender
// goroutines.
const connections = 2

// daemon is one rayschedd handler behind a loopback TCP listener, with the
// client transport the load generator uses.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startDaemon(cfg server.Config) *daemon {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	return &daemon{srv: srv, ts: ts, hc: &http.Client{Transport: tr}}
}

// close stops the listener, then drains the daemon's pool.
func (d *daemon) close() {
	d.hc.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// reply is what the client saw of one request.
type reply struct {
	status int
	// cache is the X-Cache header: "hit" or "miss".
	cache string
	// shared reports X-Singleflight: shared (another request computed it).
	shared bool
	body   []byte
	err    error
}

// post sends one JSON document. A non-empty id is sent as X-Request-ID,
// which the daemon adopts and stamps on its request span.
func (d *daemon) post(ctx context.Context, path string, body []byte, id string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Cache"),
		shared: resp.Header.Get("X-Singleflight") == "shared",
		body:   b,
		err:    err,
	}
}

// scrapeMetrics reads the daemon's /metrics page into series → value, the
// series keyed as written (name plus label set).
func scrapeMetrics(ctx context.Context, hc *http.Client, baseURL string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
