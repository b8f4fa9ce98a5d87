package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// Client is a small Go client for the spreadd API; the end-to-end suite and
// the cluster coordinator drive servers through it. The zero value is not
// usable — set BaseURL.
//
// Every request carries its context, so cancelling ctx or letting its
// deadline expire aborts the request (including one stalled inside a hung
// worker) with ctx's error. Timeout additionally bounds requests whose
// context has NO deadline — without it, a caller passing
// context.Background() against a wedged server would block forever.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080" (no /v1).
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout, when > 0, caps each request that arrives with no context
	// deadline; contexts that already carry a deadline are used as-is.
	// It bounds single requests, never a whole WaitJob loop: WaitJob asks
	// the server to hold each status request for at most half of it, so a
	// job that outlasts Timeout is still waited for, one request at a time.
	Timeout time.Duration
}

// HTTPError is the typed error for non-2xx responses: callers (the cluster
// coordinator's retry logic, notably) use StatusCode to tell permanent
// request errors (4xx — retrying elsewhere cannot help) from transient
// server-side ones.
type HTTPError struct {
	StatusCode int
	Method     string
	Path       string
	// Message is the server's error body, when it sent one.
	Message string
}

func (e *HTTPError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.StatusCode)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.StatusCode)
}

// IsPermanent reports whether err is an HTTP error that will fail the same
// way on any healthy worker (a 4xx: the request itself is bad).
func IsPermanent(err error) bool {
	var he *HTTPError
	return errors.As(err, &he) && he.StatusCode >= 400 && he.StatusCode < 500
}

// NormalizeBaseURL canonicalizes one server base URL the way every CLI
// accepts them: whitespace trimmed, a bare host:port defaulted to http://,
// and no trailing slash. An empty input stays empty.
func NormalizeBaseURL(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// SplitBaseURLs parses a comma-separated base-URL list (the -peers/-workers
// flag format), normalizing each entry and dropping empties.
func SplitBaseURLs(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = NormalizeBaseURL(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// injectTrace stamps the active span context (if any) onto req as a
// traceparent header — the other half of the server's header extraction,
// and the whole of cross-process propagation: a coordinator that dispatches
// under its span context makes the worker's job spans children of its own.
func injectTrace(ctx context.Context, req *http.Request) {
	if sc, ok := tracing.FromContext(ctx); ok && sc.IsValid() {
		req.Header.Set(wire.HeaderTraceparent, sc.Traceparent())
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	injectTrace(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Surface the context's own error for cancellations/deadlines so
		// callers can errors.Is against context.Canceled/DeadlineExceeded.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, fmt.Errorf("service: %s %s: %w", method, path, ctxErr)
		}
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		he := &HTTPError{StatusCode: resp.StatusCode, Method: method, Path: path}
		var eb errorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			he.Message = eb.Error
		}
		return resp.StatusCode, he
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("service: decode %s %s response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Run submits a run request. Small jobs come back completed (state "done",
// results populated); queued jobs come back state "queued" — follow up with
// Job or WaitJob.
func (c *Client) Run(ctx context.Context, req wire.RunRequest) (JobStatus, error) {
	var st JobStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// Job fetches a job's status and progress.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs fetches the job listing: every addressable job (without result
// payloads), sorted by submission order, plus counts by state.
func (c *Client) Jobs(ctx context.Context) (JobList, error) {
	var jl JobList
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &jl)
	return jl, err
}

// WaitJob waits until a job reaches a terminal state (done, failed,
// canceled) or ctx expires. Each status request is a long poll
// (GET /v1/jobs/{id}?wait=): the server holds it until the job ends, or for
// half of the request's own bound (the time left before ctx's deadline,
// else Timeout) capped at the server's 10 s hold, so the answer always
// arrives before the bound cuts the request off. WaitJob asks at most once
// per poll (poll <= 0 defaults to 50ms): a server that ignores wait is
// polled every poll interval, never in a tight loop.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		path := "/v1/jobs/" + id
		if hold := c.jobHold(ctx); hold >= time.Millisecond {
			path += "?wait=" + strconv.FormatInt(hold.Milliseconds(), 10) + "ms"
		}
		var st JobStatus
		if _, err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			return st, err
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// jobHold is how long WaitJob asks the server to hold one status request:
// half the request's bound, at most the server's cap.
func (c *Client) jobHold(ctx context.Context) time.Duration {
	if deadline, ok := ctx.Deadline(); ok {
		return min(maxJobWait, time.Until(deadline)/2)
	}
	if c.Timeout > 0 {
		return min(maxJobWait, c.Timeout/2)
	}
	return maxJobWait
}

// RunStream submits a run request as a JSONL stream (POST /v1/runs?stream=1)
// and invokes onEvent for every line until the stream ends. A non-nil error
// from onEvent aborts the stream and is returned. The stream deliberately
// ignores c.Timeout — it is long-lived by design — so bound it with ctx.
func (c *Client) RunStream(ctx context.Context, req wire.RunRequest, onEvent func(wire.StreamEvent) error) error {
	return c.doStream(ctx, http.MethodPost, "/v1/runs?stream=1", req, onEvent)
}

// JobStream attaches a JSONL stream to an already submitted job
// (GET /v1/jobs/{id}/stream): events from the attach point forward.
func (c *Client) JobStream(ctx context.Context, id string, onEvent func(wire.StreamEvent) error) error {
	return c.doStream(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil, onEvent)
}

// doStream is do's streaming sibling: no Timeout injection (a stream's
// lifetime is the job's), JSONL-decoded body, onEvent per line until EOF.
func (c *Client) doStream(ctx context.Context, method, path string, body any, onEvent func(wire.StreamEvent) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	injectTrace(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("service: %s %s: %w", method, path, ctxErr)
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		he := &HTTPError{StatusCode: resp.StatusCode, Method: method, Path: path}
		var eb errorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			he.Message = eb.Error
		}
		return he
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wire.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("service: %s %s: %w", method, path, ctxErr)
			}
			return fmt.Errorf("service: decode %s %s stream: %w", method, path, err)
		}
		if err := onEvent(ev); err != nil {
			return err
		}
	}
}

// Metrics fetches /v1/metrics: the raw Prometheus text exposition (parse
// with obs.ParseText when structure is needed).
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("service: GET /v1/metrics: %w", ctxErr)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &HTTPError{StatusCode: resp.StatusCode, Method: http.MethodGet, Path: "/v1/metrics"}
	}
	return io.ReadAll(resp.Body)
}

// Trace fetches GET /v1/traces/{id}: the span set of one trace, id being a
// job ID or a 32-hex trace ID. Against a coordinator this is the fully
// assembled distributed trace (coordinator + worker spans).
func (c *Client) Trace(ctx context.Context, id string) (wire.Trace, error) {
	var tr wire.Trace
	_, err := c.do(ctx, http.MethodGet, "/v1/traces/"+id, nil, &tr)
	return tr, err
}

// Catalog fetches the registered algorithms, adversaries, and scenarios.
func (c *Client) Catalog(ctx context.Context) (Catalog, error) {
	var cat Catalog
	_, err := c.do(ctx, http.MethodGet, "/v1/catalog", nil, &cat)
	return cat, err
}

// Ready checks /v1/readyz (readiness: a submission would be accepted); a
// 503 surfaces as an *HTTPError whose Message names the reason.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/v1/readyz", nil, nil)
	return err
}
