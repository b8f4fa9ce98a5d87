package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynspread/internal/wire"
)

// stalledServer accepts requests and never answers until released — the
// shape of a hung worker.
func stalledServer(t *testing.T) (*httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); hs.Close() })
	return hs, release
}

// TestClientContextDeadlineAbortsStalledRequest: a context deadline must
// bound every request, so a hung worker cannot block a caller indefinitely.
func TestClientContextDeadlineAbortsStalledRequest(t *testing.T) {
	hs, _ := stalledServer(t)
	c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, wire.RunRequest{Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static"}}})
	if err == nil {
		t.Fatal("request against a stalled server returned no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error is not the context's deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline not enforced promptly: took %v", elapsed)
	}
}

// TestClientTimeoutBoundsDeadlineFreeRequests: with no context deadline,
// Client.Timeout is the backstop.
func TestClientTimeoutBoundsDeadlineFreeRequests(t *testing.T) {
	hs, _ := stalledServer(t)
	c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client(), Timeout: 50 * time.Millisecond}

	start := time.Now()
	_, err := c.do(context.Background(), http.MethodGet, "/v1/healthz", nil, nil)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout not applied: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout not enforced promptly: took %v", elapsed)
	}

	// An explicit context deadline wins over Timeout (it is not shortened).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
			t.Fatalf("context with its own deadline was cut short after %v: %v", elapsed, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request ignored its context deadline entirely")
	}
}

// TestClientCancellationPropagates: cancelling mid-request aborts it.
func TestClientCancellationPropagates(t *testing.T) {
	hs, _ := stalledServer(t)
	c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the in-flight request")
	}
}

// TestClientPermanentErrorTyping: 4xx responses surface as *HTTPError and
// classify as permanent; the coordinator keys its no-retry decision on this.
func TestClientPermanentErrorTyping(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	_, err := h.client.Run(context.Background(), wire.RunRequest{})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request not a typed 400: %v", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("400 not classified permanent: %v", err)
	}
	if IsPermanent(errors.New("dial tcp: connection refused")) {
		t.Fatal("network error classified permanent")
	}
	if IsPermanent(&HTTPError{StatusCode: http.StatusServiceUnavailable}) {
		t.Fatal("503 classified permanent")
	}
}
