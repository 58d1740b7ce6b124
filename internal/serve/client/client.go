// Package client is the typed HTTP client for the wmx serve daemon: it
// submits sweeps, follows their server-sent-event progress streams, and
// fetches the warm analytics — one small method per API endpoint, sharing
// the wire types with internal/serve so client and daemon cannot drift.
//
// With WithRetry, every call also rides a retry loop built for the daemon's
// degradation ladder: capped exponential backoff with jitter, Retry-After
// honored verbatim (load shedding and drains always send one), transport
// failures and 5xx retried, client mistakes (4xx) not. Run is the
// whole-sweep form — submit, follow, resubmit on retryable failure — and is
// safe to hammer because sweeps are content-keyed and idempotent: a retried
// sweep redoes only the points that never completed.
package client

import (
	"bufio"
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

	"waymemo/internal/explore"
	"waymemo/internal/serve"
)

// Client talks to one daemon. The zero value is not usable; construct with
// New.
type Client struct {
	base   string
	hc     *http.Client
	policy RetryPolicy
}

// Option configures a Client at construction.
type Option func(*Client)

// WithRetry enables the retry loop under the given policy.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// New returns a client for the daemon at base ("http://127.0.0.1:8077").
// The underlying http.Client carries no timeout — event streams are
// long-lived — so pass a context to every call instead. Without WithRetry
// every call is single-attempt.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiError decodes a non-2xx response into an *APIError, capturing any
// Retry-After the daemon attached.
func apiError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		ae.Message = e.Error
	} else {
		ae.Message = strings.TrimSpace(string(body))
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// getJSON fetches base+path and decodes the body into out, retrying under
// the client's policy.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.retry(ctx, func() error { return c.getJSONOnce(ctx, path, out) })
}

// getJSONOnce is one GET of base+path, decoding the body into out unless
// out is nil.
func (c *Client) getJSONOnce(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks daemon liveness.
func (c *Client) Health(ctx context.Context) error { return c.getJSONOnce(ctx, "/healthz", nil) }

// Ready checks the readiness probe: nil while the daemon accepts sweeps, an
// *APIError with Retry-After once it is draining. Never retried — a probe
// reports, it does not wait.
func (c *Client) Ready(ctx context.Context) error { return c.getJSONOnce(ctx, "/readyz", nil) }

// Submit posts a sweep request and returns its acceptance, retrying under
// the client's policy — in particular backing off and resubmitting when the
// daemon sheds the sweep with 429 + Retry-After.
func (c *Client) Submit(ctx context.Context, sr serve.SweepRequest) (serve.SubmitResponse, error) {
	var sub serve.SubmitResponse
	err := c.retry(ctx, func() error {
		var err error
		sub, err = c.submitOnce(ctx, sr)
		return err
	})
	return sub, err
}

func (c *Client) submitOnce(ctx context.Context, sr serve.SweepRequest) (serve.SubmitResponse, error) {
	var sub serve.SubmitResponse
	blob, err := json.Marshal(sr)
	if err != nil {
		return sub, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(blob))
	if err != nil {
		return sub, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return sub, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return sub, apiError(resp)
	}
	return sub, json.NewDecoder(resp.Body).Decode(&sub)
}

// Status fetches one sweep's current state and metrics.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.getJSON(ctx, "/v1/sweeps/"+id, &st)
	return st, err
}

// followState is the SSE follower's cursor across reconnects: the epoch of
// the event log it is reading and the last sequence delivered within it.
// The daemon rebuilds a job's event log — under the same content-derived
// sweep ID — when a crashed daemon resumes the sweep from its journal or a
// failed run is replaced by a resubmission; each rebuild carries a higher
// epoch. A follower that reconnects into a higher epoch must reset its
// sequence cursor (the new log replays from seq 0 and is NOT a replay of
// what it already consumed), and events from an older epoch than the
// cursor's are stragglers to drop.
type followState struct {
	epoch, seq int
}

func newFollowState() followState { return followState{seq: -1} }

// skip reports whether ev was already delivered, advancing the cursor for
// fresh events.
func (st *followState) skip(ev serve.Event) bool {
	if ev.Epoch > st.epoch {
		st.epoch, st.seq = ev.Epoch, -1
	}
	if ev.Epoch < st.epoch || ev.Seq <= st.seq {
		return true
	}
	st.seq = ev.Seq
	return false
}

// Events follows the sweep's SSE stream, invoking fn (if non-nil) for every
// point event, and returns the terminal status carried by the stream's
// "done" event. It blocks until the sweep finishes or ctx ends. Under a
// retry policy a dropped stream reconnects with backoff; the daemon replays
// the job's full event log on reattach, and events already delivered are
// skipped by (epoch, sequence), so fn sees each event of a given epoch at
// most once — including across a daemon restart that rebuilt the log from
// the sweep journal at a higher epoch.
func (c *Client) Events(ctx context.Context, id string, fn func(serve.Event)) (serve.JobStatus, error) {
	var final serve.JobStatus
	st := newFollowState()
	err := c.retry(ctx, func() error {
		var err error
		final, err = c.eventsOnce(ctx, id, &st, fn)
		return err
	})
	return final, err
}

// eventsOnce is one SSE attach: it streams events the cursor has not seen
// to fn (advancing the cursor), so reconnects deliver each event at most
// once per epoch.
func (c *Client) eventsOnce(ctx context.Context, id string, st *followState, fn func(serve.Event)) (serve.JobStatus, error) {
	var final serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return final, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, apiError(resp)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "point":
				var ev serve.Event
				if err := json.Unmarshal(data, &ev); err != nil {
					return final, fmt.Errorf("serve: bad point event: %w", err)
				}
				if st.skip(ev) {
					continue // replayed on reconnect; already delivered
				}
				if fn != nil {
					fn(ev)
				}
			case "done":
				return final, json.Unmarshal(data, &final)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, fmt.Errorf("serve: event stream for %s ended without done", id)
}

// Wait blocks until the sweep finishes (via its event stream) and returns
// the terminal status. A sweep that failed server-side is returned as an
// error.
func (c *Client) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	st, err := c.Events(ctx, id, nil)
	if err != nil {
		return st, err
	}
	if st.State != "done" {
		return st, fmt.Errorf("serve: sweep %s %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// Run drives one sweep end to end under the retry policy: submit, follow
// its events (fn as in Events), and — when the daemon sheds the sweep, the
// stream drops and the job is gone on reattach, or the sweep itself fails
// retryably (a dead singleflight leader, an injected I/O fault) — back off
// and resubmit. Resubmission is safe because grid points are content-keyed:
// completed points answer from the store and only the never-finished rest
// re-simulates. Each inner call is single-attempt, so the policy's
// MaxAttempts bounds the total tries rather than multiplying through
// nested loops. The returned status is "done" on success; otherwise the
// last attempt's failure comes back as the error.
//
// Run also survives a daemon restart mid-sweep: sweep IDs are content
// hashes, so after a reconnect the follower reattaches to the journal-
// resumed job under the same ID (its rebuilt event log arrives at a higher
// epoch and the cursor resets), and if the restarted daemon did not resume
// the sweep, the 404 path resubmits — idempotently landing on the same ID.
func (c *Client) Run(ctx context.Context, sr serve.SweepRequest, fn func(serve.Event)) (serve.JobStatus, error) {
	var st serve.JobStatus
	var err error
	var hint time.Duration
	id, cur := "", newFollowState()
	for attempt := 0; attempt < c.policy.attempts(); attempt++ {
		if attempt > 0 {
			if sleepCtx(ctx, c.policy.delay(attempt-1, hint)) != nil {
				return st, err
			}
			hint = 0
		}
		if id == "" {
			var sub serve.SubmitResponse
			sub, err = c.submitOnce(ctx, sr)
			if err != nil {
				if retryable(err) && ctx.Err() == nil {
					hint = retryAfterHint(err)
					continue
				}
				return st, err
			}
			id = sub.ID
		}
		st, err = c.eventsOnce(ctx, id, &cur, fn)
		if err != nil {
			var ae *APIError
			if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
				// The daemon forgot (or lost) the job; start over. The
				// epoch cursor carries across, so a resubmission that lands
				// on the same ID (idempotency) replays nothing stale.
				id = ""
			}
			if retryable(err) && ctx.Err() == nil {
				hint = retryAfterHint(err)
				continue
			}
			return st, err
		}
		if st.State == "done" {
			return st, nil
		}
		err = fmt.Errorf("serve: sweep %s %s: %s", id, st.State, st.Error)
		if st.Retryable && ctx.Err() == nil {
			// A failed sweep is resubmitted — the replacement runs under
			// the same content-derived ID at a higher epoch; its flights
			// were forgotten, its completed points are in the store.
			id = ""
			hint = time.Duration(st.RetryAfterMS) * time.Millisecond
			continue
		}
		return st, err
	}
	return st, err
}

// Result fetches a finished sweep's full grid.
func (c *Client) Result(ctx context.Context, id string) (serve.ResultResponse, error) {
	var res serve.ResultResponse
	err := c.getJSON(ctx, "/v1/sweeps/"+id+"/result", &res)
	return res, err
}

// Candidates fetches the per-(geometry, technique) averages.
func (c *Client) Candidates(ctx context.Context, id string) ([]explore.Candidate, error) {
	var out []explore.Candidate
	err := c.getJSON(ctx, "/v1/sweeps/"+id+"/candidates", &out)
	return out, err
}

// Pareto fetches the power/hit-rate frontier.
func (c *Client) Pareto(ctx context.Context, id string) ([]explore.Candidate, error) {
	var out []explore.Candidate
	err := c.getJSON(ctx, "/v1/sweeps/"+id+"/pareto", &out)
	return out, err
}

// Marginals fetches the per-axis marginal averages.
func (c *Client) Marginals(ctx context.Context, id string) ([]explore.Marginal, error) {
	var out []explore.Marginal
	err := c.getJSON(ctx, "/v1/sweeps/"+id+"/marginals", &out)
	return out, err
}

// Optimum fetches the measured power optimum plus the paper's pick.
func (c *Client) Optimum(ctx context.Context, id string) (serve.OptimumResponse, error) {
	var out serve.OptimumResponse
	err := c.getJSON(ctx, "/v1/sweeps/"+id+"/optimum", &out)
	return out, err
}

// Stats fetches the daemon-wide counters.
func (c *Client) Stats(ctx context.Context) (serve.ServerStats, error) {
	var out serve.ServerStats
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}
