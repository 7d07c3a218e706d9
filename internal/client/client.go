// Package client is the retrying HTTP client for rayschedd: exponential
// backoff with full jitter, a bounded retry budget, and respect for the
// server's Retry-After hints. It retries exactly the failures the daemon
// declares retryable — transport errors, 429 (queue full), 503 (draining or
// transient fault), 502/504 (intermediaries, deadline expiry) — and never
// retries application errors (4xx validation failures are deterministic;
// repeating them wastes the server's admission budget).
//
// Jitter is drawn from a caller-seeded rng.Source rather than the global
// math/rand so chaos tests replay identical schedules, matching the
// repo-wide determinism discipline.
package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/httpbody"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
)

// Config shapes the retry policy. The zero value is production-reasonable.
type Config struct {
	// BaseURL prefixes every request path, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient performs the requests; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts caps tries per request including the first; <= 0 selects 6.
	MaxAttempts int
	// BaseDelay is the backoff unit: attempt k (0-based retry) backs off
	// Uniform(0, min(MaxDelay, BaseDelay·2^k)) — "full jitter", which
	// decorrelates clients that were rejected in the same overload spike.
	// <= 0 selects 25ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff; <= 0 selects 2s.
	MaxDelay time.Duration
	// JitterSeed seeds the jitter stream; 0 selects 1. Distinct clients
	// should use distinct seeds or they will herd.
	JitterSeed uint64
	// Sleep, when non-nil, replaces time.Sleep — tests inject a recorder to
	// verify the schedule without real waiting. It must honor ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Stats counts the client's activity; read with the accessor after a run.
type Stats struct {
	// Requests is the number of PostJSON calls.
	Requests uint64
	// Attempts is the number of HTTP round trips (≥ Requests).
	Attempts uint64
	// Retries is Attempts minus first tries.
	Retries uint64
	// Failures is the number of PostJSON calls that exhausted the budget or
	// hit a terminal error.
	Failures uint64
}

// Client is a retrying JSON-over-HTTP client for rayschedd. Safe for
// concurrent use; the jitter stream is mutex-guarded.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	src *rng.Source

	requests atomic.Uint64
	attempts atomic.Uint64
	retries  atomic.Uint64
	failures atomic.Uint64
}

// New builds a client from cfg (see Config for defaulting).
func New(cfg Config) *Client {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 25 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	h := cfg.HTTPClient
	if h == nil {
		h = http.DefaultClient
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	return &Client{cfg: cfg, http: h, src: rng.New(cfg.JitterSeed)}
}

// sleepCtx is context-aware time.Sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an HTTP status is worth another attempt.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the pause before retry k (0-based): full jitter over the
// exponential envelope, floored by the server's Retry-After when one was
// given (the server knows its queue better than our exponent does).
func (c *Client) backoff(k int, retryAfter time.Duration) time.Duration {
	env := c.cfg.BaseDelay << uint(k)
	if env > c.cfg.MaxDelay || env <= 0 { // <= 0: shift overflow
		env = c.cfg.MaxDelay
	}
	c.mu.Lock()
	d := time.Duration(c.src.Float64() * float64(env))
	c.mu.Unlock()
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a delay-seconds Retry-After value (the only form
// rayschedd emits); 0 when absent or unparsable.
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// PostJSON posts body to path and returns the response body and status,
// retrying per the policy. A non-2xx terminal status is returned with a nil
// error — the caller distinguishes application failures from transport
// failure; err is non-nil only when the budget is exhausted or ctx ends.
func (c *Client) PostJSON(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	return c.post(ctx, path, body)
}

// post is the retry loop behind PostJSON. One request ID is minted per
// logical request and sent as X-Request-ID on every attempt, so retries
// correlate to one line of intent in worker access logs instead of
// presenting as distinct requests; the attempt number rides on the span as
// an attribute. When a tracer governs ctx, the outbound
// requests also carry an X-Trace-Context header naming the run and the
// enclosing span, so a collecting server parents its work under this call.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	c.requests.Add(1)
	reqID := obs.NewRequestID()
	ctx, sp := obs.Start(ctx, "client.post")
	sp.SetAttr("path", path)
	sp.SetAttr("request_id", reqID)
	defer sp.End()
	var traceHeader string
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		traceHeader = tc.String()
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		sp.SetAttr("attempts", attempt+1)
		var (
			status     int
			respBody   []byte
			retryAfter time.Duration
		)
		// Chaos hooks, free when disarmed: client.latency models a slow link
		// (the injected delay goes through cfg.Sleep, so tests with a fake
		// clock never really wait), client.blackhole models a partition (the
		// attempt burns without touching the wire and is retried per policy).
		// Either site's error kind consumes the attempt as a transport
		// failure.
		delay, err := faults.Check(faults.SiteClientLatency)
		if delay > 0 {
			if serr := c.cfg.Sleep(ctx, delay); serr != nil {
				c.failures.Add(1)
				return nil, 0, serr
			}
		}
		if err == nil {
			_, err = faults.Check(faults.SiteClientBlackhole)
		}
		if err == nil {
			req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
			if rerr != nil {
				c.failures.Add(1)
				return nil, 0, rerr
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", reqID)
			if traceHeader != "" {
				req.Header.Set(obs.HeaderTraceContext, traceHeader)
			}
			var resp *http.Response
			resp, err = c.http.Do(req)
			if err == nil {
				status = resp.StatusCode
				respBody, err = httpbody.ReadAll(resp.Body, resp.ContentLength)
				retryAfter = parseRetryAfter(resp)
				resp.Body.Close()
			}
		}
		switch {
		case err != nil:
			// Transport failure (or body read failure): retryable unless the
			// context is the cause.
			if ctx.Err() != nil {
				c.failures.Add(1)
				return nil, 0, ctx.Err()
			}
			lastErr = err
		case retryable(status):
			lastErr = fmt.Errorf("client: %s answered %d", path, status)
		default:
			sp.SetAttr("status", status)
			return respBody, status, nil
		}
		if attempt < c.cfg.MaxAttempts-1 {
			if serr := c.cfg.Sleep(ctx, c.backoff(attempt, retryAfter)); serr != nil {
				c.failures.Add(1)
				return nil, 0, serr
			}
		}
	}
	c.failures.Add(1)
	sp.SetAttr("error", true)
	return nil, 0, fmt.Errorf("client: retry budget (%d attempts) exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// Stats snapshots the activity counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests: c.requests.Load(),
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Failures: c.failures.Load(),
	}
}
