// Package openai is the OpenAI-compatible HTTP client SwapServeLLM's
// in-process callers use: the model workers verifying an engine's API,
// the experiments and load generators driving the router and gateway,
// and the registry's health probe. Every call is one exchange
// (Client.Do) over the clock's transport. The wire types, their codec
// and the HTTP response writers live in internal/proxy/ir.
package openai

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"
)

// Client is a minimal OpenAI-compatible HTTP client used by the model
// workers to forward requests to engine backends, and by the examples and
// load generators to drive the SwapServeLLM router.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with no timeout (streams can be
	// long-lived) on the clock's transport (simclock.Transport); set one
	// to bound request duration.
	HTTPClient *http.Client
	// Clock paces health-check polling and picks the transport; defaults
	// to the real clock. Tests and simulations inject a scaled or virtual
	// clock so calls compress with the rest of the timeline.
	Clock simclock.Clock
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Transport: simclock.Transport(c.clock())}
}

func (c *Client) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return simclock.Real{}
}

// Do runs one HTTP exchange against BaseURL+path and hands the
// response to read. Under a Virtual clock a server on the clock answers
// in-process (simclock.Listen), so simulated time advances while the
// server works, which is what simulates generation latency, but never
// while the request or response is in flight. A non-nil body is sent as
// JSON, header adds request headers, and Do closes the response body.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, header http.Header,
	read func(*http.Response) error) error {
	var rb io.Reader
	if body != nil {
		rb = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rb)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	//swaplint:block reason=under a Virtual clock the round trip runs on simclock's in-process transport, parked in a gate BlockOn until the registered handler answers
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return read(resp)
}

// post sends in as JSON to path and hands a 200 response's body to
// read; any other status is returned as the server's *ir.APIError.
func (c *Client) post(ctx context.Context, path string, in interface{}, read func(io.Reader) error) error {
	b, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("openai: marshal request: %w", err)
	}
	return c.Do(ctx, http.MethodPost, path, b, nil, expectOK(read))
}

// expectOK adapts read to Do: a 200 response's body goes to read, and
// any other status becomes the error its envelope carries.
func expectOK(read func(io.Reader) error) func(*http.Response) error {
	return func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			var env ir.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Message == "" {
				return fmt.Errorf("openai: http %d", resp.StatusCode)
			}
			return &env.Error
		}
		return read(resp.Body)
	}
}

// decodeInto returns a body reader that decodes one JSON value into
// out.
func decodeInto(out interface{}, what string) func(io.Reader) error {
	return func(r io.Reader) error {
		if err := json.NewDecoder(r).Decode(out); err != nil {
			return fmt.Errorf("openai: decode %s: %w", what, err)
		}
		return nil
	}
}

// ChatCompletion issues a blocking chat completion.
func (c *Client) ChatCompletion(ctx context.Context, req *ir.ChatCompletionRequest) (*ir.ChatCompletionResponse, error) {
	req.Stream = false
	var out ir.ChatCompletionResponse
	if err := c.post(ctx, "/v1/chat/completions", req, decodeInto(&out, "response")); err != nil {
		return nil, err
	}
	return &out, nil
}

// ChatCompletionStream issues a streaming chat completion, invoking fn for
// every chunk. It returns after the [DONE] sentinel or on error; the
// whole stream is consumed inside the one exchange.
func (c *Client) ChatCompletionStream(ctx context.Context, req *ir.ChatCompletionRequest, fn func(*ir.ChatCompletionChunk) error) error {
	req.Stream = true
	return c.post(ctx, "/v1/chat/completions", req, func(body io.Reader) error {
		return readStream(body, fn)
	})
}

// readStream decodes an SSE chunk stream with ir.ReadSSEEvent and the
// OpenAI codec, handing each chunk to fn until the [DONE] sentinel or
// the end of the stream. Events without a data line (comments,
// keep-alives) are skipped.
func readStream(r io.Reader, fn func(*ir.ChatCompletionChunk) error) error {
	br := bufio.NewReader(r)
	for {
		event, rerr := ir.ReadSSEEvent(br)
		if data, ok := sseData(event); ok {
			ev, err := ir.OpenAICodec{}.DecodeStreamEvent(ir.FamilyChat, []byte(data))
			if err != nil {
				return err
			}
			if ev.Done {
				return nil
			}
			if err := fn(ev.Chunk); err != nil {
				return err
			}
		}
		if errors.Is(rerr, io.EOF) {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// sseData returns the payload of an SSE event's data line, or false
// when the event carries none.
func sseData(event string) (string, bool) {
	for event != "" {
		var line string
		line, event, _ = strings.Cut(event, "\n")
		if data, ok := strings.CutPrefix(line, "data:"); ok {
			return data, true
		}
	}
	return "", false
}

// Completion issues a blocking legacy completion.
func (c *Client) Completion(ctx context.Context, req *ir.CompletionRequest) (*ir.CompletionResponse, error) {
	req.Stream = false
	var out ir.CompletionResponse
	if err := c.post(ctx, "/v1/completions", req, decodeInto(&out, "completion")); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListModels fetches GET /v1/models.
func (c *Client) ListModels(ctx context.Context) (*ir.ModelList, error) {
	var out ir.ModelList
	if err := c.Do(ctx, http.MethodGet, "/v1/models", nil, nil, expectOK(decodeInto(&out, "model list"))); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy probes GET /health once, reporting whether the server
// answered 200.
func (c *Client) Healthy(ctx context.Context) bool {
	ok := false
	err := c.Do(ctx, http.MethodGet, "/health", nil, nil, func(resp *http.Response) error {
		ok = resp.StatusCode == http.StatusOK
		return nil
	})
	return err == nil && ok
}

// WaitHealthy polls GET /health until the server responds 200, the context
// is cancelled, or the deadline elapses.
func (c *Client) WaitHealthy(ctx context.Context, interval time.Duration) error {
	gate := simclock.GateFor(c.clock())
	for !c.Healthy(ctx) {
		if gate.Wait(interval, ctx.Done()) == 0 {
			return ctx.Err()
		}
	}
	return nil
}
