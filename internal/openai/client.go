package openai

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"swapservellm/internal/simclock"
)

// Client is a minimal OpenAI-compatible HTTP client used by the model
// workers to forward requests to engine backends, and by the examples and
// load generators to drive the SwapServeLLM router.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with no timeout (streams can be
	// long-lived); set one to bound request duration.
	HTTPClient *http.Client
	// Clock paces health-check polling; defaults to the real clock. Tests
	// and simulations inject a scaled clock so WaitHealthy intervals
	// compress with the rest of the timeline.
	Clock simclock.Clock
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: &http.Client{}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return simclock.Real{}
}

// post issues a JSON POST and returns the raw response.
func (c *Client) post(ctx context.Context, path string, body interface{}) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("openai: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	simclock.Stamp(req)
	return c.httpClient().Do(req)
}

// decodeError converts a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Message == "" {
		return fmt.Errorf("openai: http %d", resp.StatusCode)
	}
	return &env.Error
}

// ChatCompletion issues a blocking chat completion. The whole round trip
// runs as one gate-tracked exchange (Gate.Send) on the installed clock:
// under a Virtual clock simulated time may advance while the engine
// generates, which is what simulates generation latency, but not while
// the request or response crosses the wire. With the default real clock
// the gate is a no-op.
func (c *Client) ChatCompletion(ctx context.Context, req *ChatCompletionRequest) (out *ChatCompletionResponse, err error) {
	simclock.GateFor(c.clock()).Send(ctx, func(ctx context.Context) { out, err = c.chatCompletion(ctx, req) })
	return out, err
}

func (c *Client) chatCompletion(ctx context.Context, req *ChatCompletionRequest) (*ChatCompletionResponse, error) {
	req.Stream = false
	resp, err := c.post(ctx, "/v1/chat/completions", req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out ChatCompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("openai: decode response: %w", err)
	}
	return &out, nil
}

// ChatCompletionStream issues a streaming chat completion, invoking fn for
// every chunk. It returns after the [DONE] sentinel or on error. As with
// ChatCompletion, the request and the full stream consumption run as
// gate-tracked IO on the installed clock.
func (c *Client) ChatCompletionStream(ctx context.Context, req *ChatCompletionRequest, fn func(*ChatCompletionChunk) error) (err error) {
	simclock.GateFor(c.clock()).Send(ctx, func(ctx context.Context) { err = c.chatCompletionStream(ctx, req, fn) })
	return err
}

func (c *Client) chatCompletionStream(ctx context.Context, req *ChatCompletionRequest, fn func(*ChatCompletionChunk) error) error {
	req.Stream = true
	resp, err := c.post(ctx, "/v1/chat/completions", req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	r := NewSSEReader(resp.Body)
	for {
		chunk, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}

// ListModels fetches GET /v1/models.
func (c *Client) ListModels(ctx context.Context) (*ModelList, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/models", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out ModelList
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("openai: decode model list: %w", err)
	}
	return &out, nil
}

// WaitHealthy polls GET /health until the server responds 200, the context
// is cancelled, or the deadline elapses.
func (c *Client) WaitHealthy(ctx context.Context, interval time.Duration) error {
	gate := simclock.GateFor(c.clock())
	for {
		var resp *http.Response
		var err error
		gate.Send(ctx, func(ctx context.Context) {
			var req *http.Request
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/health", nil)
			if err != nil {
				return
			}
			simclock.Stamp(req)
			resp, err = c.httpClient().Do(req)
		})
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if gate.Wait(interval, ctx.Done()) == 0 {
			return ctx.Err()
		}
	}
}
