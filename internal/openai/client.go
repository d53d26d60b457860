// Package openai is the OpenAI-compatible HTTP client SwapServeLLM's
// in-process callers use: the model workers verifying an engine's API,
// the experiments and load generators driving the router and gateway,
// and the registry's health probe. Every call is one exchange
// (Client.Do) over the clock's transport. The wire types, their codec
// and the HTTP response writers live in internal/proxy/ir.
package openai

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
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
	// HTTPClient, when set, runs every exchange (set one to bound
	// request duration). By default exchanges go straight to the clock's
	// transport (simclock.Transport) with no timeout, as streams can be
	// long-lived.
	HTTPClient *http.Client
	// Clock paces health-check polling and picks the transport; defaults
	// to the real clock. Tests and simulations inject a scaled or virtual
	// clock so calls compress with the rest of the timeline.
	Clock simclock.Clock

	// base is BaseURL parsed, kept for as long as BaseURL stays the
	// string it was parsed from.
	base atomic.Pointer[parsedBase]
}

// parsedBase is a parsed BaseURL and the string it came from.
type parsedBase struct {
	raw string
	u   *url.URL
}

// target returns the URL of BaseURL+path as NewRequest takes it: a
// base URL and the path to set on a copy of it. When BaseURL is a bare
// server root (no path, query or fragment) and path a plain absolute
// path, that is the root, parsed once, and path, which is the URL
// parsing the joined string gives. Any other pair is parsed joined,
// with no path left to set.
func (c *Client) target(path string) (*url.URL, string, error) {
	if !plainPath(path) {
		u, err := url.Parse(c.BaseURL + path)
		return u, "", err
	}
	pb := c.base.Load()
	if pb == nil || pb.raw != c.BaseURL {
		u, err := url.Parse(c.BaseURL)
		if err != nil {
			return nil, "", err
		}
		pb = &parsedBase{raw: c.BaseURL, u: u}
		c.base.Store(pb)
	}
	if pb.u.Path != "" || pb.u.RawPath != "" || pb.u.RawQuery != "" || pb.u.ForceQuery || pb.u.Fragment != "" || pb.u.Opaque != "" {
		u, err := url.Parse(c.BaseURL + path)
		return u, "", err
	}
	return pb.u, path, nil
}

// plainPath reports whether path is absolute and made of characters a
// URL path carries unescaped.
func plainPath(path string) bool {
	if !strings.HasPrefix(path, "/") {
		return false
	}
	for i := 0; i < len(path); i++ {
		switch c := path[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '/', c == '-', c == '_', c == '.', c == '~':
		default:
			return false
		}
	}
	return true
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
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
	u, path, err := c.target(path)
	if err != nil {
		return err
	}
	h := header
	if body != nil {
		h = simclock.JSONHeader
		if len(header) > 0 {
			h = make(http.Header, 1+len(header))
			h["Content-Type"] = simclock.JSONHeader["Content-Type"]
			maps.Copy(h, header)
		}
	}
	req := simclock.NewRequest(ctx, method, u, path, body, h)
	var resp *http.Response
	if c.HTTPClient != nil {
		//swaplint:block reason=the caller's client bounds its round trip: a timeout on a socket, or simclock's in-process transport under a Virtual clock
		resp, err = c.HTTPClient.Do(req)
	} else {
		//swaplint:block reason=under a Virtual clock the round trip runs on simclock's in-process transport, parked in a gate BlockOn until the registered handler answers
		resp, err = simclock.Send(simclock.Transport(c.clock()), req)
	}
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

// readStream decodes an SSE chunk stream with ir.SSEReader and the
// OpenAI codec, handing each chunk to fn until the [DONE] sentinel or
// the end of the stream. Events without a data line (comments,
// keep-alives) are skipped.
func readStream(r io.Reader, fn func(*ir.ChatCompletionChunk) error) error {
	events := ir.NewSSEReader(r)
	for {
		event, rerr := events.Next()
		if data, ok := sseData(event); ok {
			ev, err := ir.OpenAICodec{}.DecodeStreamEvent(ir.FamilyChat, data)
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
func sseData(event []byte) ([]byte, bool) {
	for len(event) > 0 {
		var line []byte
		line, event, _ = bytes.Cut(event, []byte("\n"))
		if data, ok := bytes.CutPrefix(line, []byte("data:")); ok {
			return data, true
		}
	}
	return nil, false
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
