package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swapservellm/internal/engine"
	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// kind is one endpoint family + wire framing the benchmark drives.
type kind string

const (
	kindChat       kind = "chat"        // OpenAI /v1/chat/completions, buffered
	kindChatSSE    kind = "chat-sse"    // OpenAI /v1/chat/completions, SSE stream
	kindOllamaChat kind = "ollama-chat" // Ollama /api/chat, NDJSON stream
	kindGenerate   kind = "generate"    // Ollama /api/generate, buffered
	kindEmbed      kind = "embeddings"  // OpenAI /v1/embeddings
	kindRerank     kind = "rerank"      // OpenAI /v1/rerank
)

// rerankDocs is the fixed document set every rerank request scores.
var rerankDocs = []string{"swap", "serve", "checkpoint", "restore", "placement"}

const rerankTopN = 3

// request is one generated input. The program sees only its HTTP form.
type request struct {
	kind      kind
	model     string
	prompt    string
	maxTokens int
	seed      int64
	class     string    // scheduling class, for the SLO limit
	due       time.Time // open loop: simulated time the request is due
}

// path and body render the request on the wire.
func (r request) path() string {
	switch r.kind {
	case kindChat, kindChatSSE:
		return "/v1/chat/completions"
	case kindOllamaChat:
		return "/api/chat"
	case kindGenerate:
		return "/api/generate"
	case kindEmbed:
		return "/v1/embeddings"
	default:
		return "/v1/rerank"
	}
}

func (r request) body() []byte {
	var v any
	switch r.kind {
	case kindChat, kindChatSSE:
		v = map[string]any{
			"model":      r.model,
			"messages":   []map[string]string{{"role": "user", "content": r.prompt}},
			"max_tokens": r.maxTokens,
			"seed":       r.seed,
			"stream":     r.kind == kindChatSSE,
		}
	case kindOllamaChat:
		v = map[string]any{
			"model":    r.model,
			"messages": []map[string]string{{"role": "user", "content": r.prompt}},
			"options":  map[string]any{"seed": r.seed, "num_predict": r.maxTokens},
		}
	case kindGenerate:
		v = map[string]any{
			"model":   r.model,
			"prompt":  r.prompt,
			"stream":  false,
			"options": map[string]any{"seed": r.seed, "num_predict": r.maxTokens},
		}
	case kindEmbed:
		v = map[string]any{"model": r.model, "input": []string{r.prompt}}
	default:
		v = map[string]any{"model": r.model, "query": r.prompt, "documents": rerankDocs, "top_n": rerankTopN}
	}
	b, _ := json.Marshal(v) // maps of strings and numbers always marshal
	return b
}

// contentKey names the requests whose outputs must be identical: every
// chat-family framing of one (model, prompt, budget, seed) decodes to
// the same upstream completion, so a stream must reassemble to its
// buffered twin and a cache hit must equal its miss.
func (r request) contentKey() string {
	switch r.kind {
	case kindEmbed:
		return "embed|" + r.model + "|" + r.prompt
	case kindRerank:
		return "rerank|" + r.model + "|" + r.prompt
	}
	return fmt.Sprintf("chat|%s|%s|%d|%d", r.model, r.prompt, r.maxTokens, r.seed)
}

// outcome is what one request produced.
type outcome struct {
	req     request
	seg     int // which deployment of the run served it
	client  int
	index   int
	sent    time.Time     // simulated send time (after any connection wait)
	end     time.Time     // simulated time the response was fully read
	ttft    time.Duration // simulated, from due (open loop) or send (closed loop)
	rttWall time.Duration
	status  int
	shed    bool
	err     error
}

// ok reports a served, checked response.
func (o *outcome) ok() bool { return o.err == nil && !o.shed }

// decoded is the checked, framing-independent view of a response.
type decoded struct {
	model   string
	content string
}

// decode parses one complete response body of the given kind and
// checks its shape: the model is named, streams end with their
// terminal frame, embeddings have the catalog dimension, rerank results
// are distinct in-range indices. It is the output check shared by every
// workload and by the self-test that corrupts a response.
func decode(k kind, body []byte) (decoded, error) {
	switch k {
	case kindChat:
		var v struct {
			Model   string `json:"model"`
			Choices []struct {
				Message struct {
					Content string `json:"content"`
				} `json:"message"`
				FinishReason string `json:"finish_reason"`
			} `json:"choices"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return decoded{}, fmt.Errorf("chat: %w", err)
		}
		if len(v.Choices) != 1 || v.Choices[0].FinishReason == "" {
			return decoded{}, fmt.Errorf("chat: want one finished choice, got %d", len(v.Choices))
		}
		return nonEmpty(decoded{v.Model, v.Choices[0].Message.Content})
	case kindChatSSE:
		return decodeSSE(body)
	case kindOllamaChat:
		return decodeNDJSON(body)
	case kindGenerate:
		var v struct {
			Model    string `json:"model"`
			Response string `json:"response"`
			Done     bool   `json:"done"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return decoded{}, fmt.Errorf("generate: %w", err)
		}
		if !v.Done {
			return decoded{}, errors.New("generate: response not done")
		}
		return nonEmpty(decoded{v.Model, v.Response})
	case kindEmbed:
		var v struct {
			Model string `json:"model"`
			Data  []struct {
				Embedding []float64 `json:"embedding"`
			} `json:"data"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return decoded{}, fmt.Errorf("embeddings: %w", err)
		}
		if len(v.Data) != 1 || len(v.Data[0].Embedding) != engine.EmbeddingDim {
			return decoded{}, fmt.Errorf("embeddings: want 1 vector of dim %d", engine.EmbeddingDim)
		}
		return decoded{v.Model, fmt.Sprint(v.Data[0].Embedding)}, nil
	case kindRerank:
		var v struct {
			Model   string `json:"model"`
			Results []struct {
				Index int     `json:"index"`
				Score float64 `json:"relevance_score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return decoded{}, fmt.Errorf("rerank: %w", err)
		}
		if len(v.Results) != rerankTopN {
			return decoded{}, fmt.Errorf("rerank: want %d results, got %d", rerankTopN, len(v.Results))
		}
		seen := map[int]bool{}
		for _, r := range v.Results {
			if r.Index < 0 || r.Index >= len(rerankDocs) || seen[r.Index] {
				return decoded{}, fmt.Errorf("rerank: bad result index %d", r.Index)
			}
			seen[r.Index] = true
		}
		return decoded{v.Model, fmt.Sprint(v.Results)}, nil
	}
	return decoded{}, fmt.Errorf("unknown kind %q", k)
}

func nonEmpty(d decoded) (decoded, error) {
	if d.content == "" {
		return d, errors.New("empty content")
	}
	return d, nil
}

// decodeSSE reassembles an OpenAI SSE stream. Every chunk must name the
// same model and the stream must end with data: [DONE].
func decodeSSE(body []byte) (decoded, error) {
	var d decoded
	var text strings.Builder
	done := false
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok || done {
			return d, fmt.Errorf("sse: unexpected line %q", line)
		}
		if payload == "[DONE]" {
			done = true
			continue
		}
		var c struct {
			Model   string `json:"model"`
			Choices []struct {
				Delta struct {
					Content string `json:"content"`
				} `json:"delta"`
			} `json:"choices"`
		}
		if err := json.Unmarshal([]byte(payload), &c); err != nil {
			return d, fmt.Errorf("sse: %w", err)
		}
		if d.model == "" {
			d.model = c.Model
		} else if c.Model != d.model {
			return d, fmt.Errorf("sse: chunk model %q after %q", c.Model, d.model)
		}
		for _, ch := range c.Choices {
			text.WriteString(ch.Delta.Content)
		}
	}
	if !done {
		return d, errors.New("sse: stream truncated before [DONE]")
	}
	d.content = text.String()
	return nonEmpty(d)
}

// decodeNDJSON reassembles an Ollama /api/chat stream, which must end
// with a done:true line.
func decodeNDJSON(body []byte) (decoded, error) {
	var d decoded
	var text strings.Builder
	done := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if done {
			return d, errors.New("ndjson: line after done")
		}
		var c struct {
			Model   string `json:"model"`
			Message struct {
				Content string `json:"content"`
			} `json:"message"`
			Done bool `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			return d, fmt.Errorf("ndjson: %w", err)
		}
		if d.model == "" {
			d.model = c.Model
		} else if c.Model != d.model {
			return d, fmt.Errorf("ndjson: line model %q after %q", c.Model, d.model)
		}
		text.WriteString(c.Message.Content)
		done = c.Done
	}
	if !done {
		return d, errors.New("ndjson: stream truncated before done")
	}
	d.content = text.String()
	return nonEmpty(d)
}

// checker validates each decoded response against its request and
// against every earlier response with the same content key.
type checker struct {
	mu   sync.Mutex
	seen map[string]string
}

func newChecker() *checker { return &checker{seen: map[string]string{}} }

func (c *checker) check(r request, d decoded) error {
	if d.model != r.model {
		return fmt.Errorf("response names model %q, requested %q", d.model, r.model)
	}
	key := r.contentKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.seen[key]
	if !ok {
		c.seen[key] = d.content
		return nil
	}
	if prev != d.content {
		return fmt.Errorf("%s %q: content differs from an earlier identical request", r.kind, r.prompt)
	}
	return nil
}

// client drives the gateway over HTTP with at most maxConns
// connections, counting connections as they open and close.
type client struct {
	base    string
	http    *http.Client
	tr      *http.Transport
	clock   simclock.Clock
	gate    *simclock.Gate
	checker *checker

	open, peak atomic.Int64
}

func newClient(base string, clock simclock.Clock, maxConns int, chk *checker) *client {
	c := &client{base: base, clock: clock, gate: simclock.GateFor(clock), checker: chk}
	dialer := &net.Dialer{}
	c.tr = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := c.open.Add(1)
			for {
				p := c.peak.Load()
				if n <= p || c.peak.CompareAndSwap(p, n) {
					break
				}
			}
			return &countedConn{Conn: conn, open: &c.open}, nil
		},
	}
	c.http = &http.Client{Transport: c.tr}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.open.Add(-1) })
	return cc.Conn.Close()
}

// readBody reads a response body. For a stream it also returns the
// simulated time the first frame carrying output text arrived — the
// first token; the role-only preamble frame carries none.
func readBody(r io.Reader, stream bool, clock simclock.Clock) ([]byte, time.Time, error) {
	if !stream {
		b, err := io.ReadAll(r)
		return b, time.Time{}, err
	}
	var buf bytes.Buffer
	var first time.Time
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadSlice('\n')
		if first.IsZero() && bytes.Contains(line, textField) && !bytes.Contains(line, emptyText) {
			first = clock.Now()
		}
		buf.Write(line)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			return buf.Bytes(), first, nil
		}
		if err != nil {
			return buf.Bytes(), first, err
		}
	}
}

var (
	textField = []byte(`"content":"`)
	emptyText = []byte(`"content":""`)
)

// do sends one request from a registered goroutine and checks the
// response. from is the simulated instant TTFT is measured from. The
// round trip is declared as external I/O so virtual time can advance
// while the caller is parked inside net/http.
func (c *client) do(ctx context.Context, r request, from time.Time) outcome {
	o := outcome{req: r, sent: c.clock.Now()}
	_, span := obs.Start(ctx, "bench.call",
		obs.String("model", r.model), obs.String("kind", string(r.kind)))
	defer span.End()
	var body []byte
	var stream bool
	var firstAt time.Time
	wall := time.Now()
	c.gate.BlockIO(func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path(), bytes.NewReader(r.body()))
		if err != nil {
			o.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			o.err = err
			return
		}
		defer resp.Body.Close()
		o.status = resp.StatusCode
		stream = strings.Contains(resp.Header.Get("Content-Type"), "event-stream") ||
			strings.Contains(resp.Header.Get("Content-Type"), "ndjson")
		body, firstAt, o.err = readBody(resp.Body, stream, c.clock)
	})
	o.rttWall = time.Since(wall)
	o.end = c.clock.Now()
	if o.err != nil {
		o.err = fmt.Errorf("%s %s: transport: %w", r.kind, r.model, o.err)
		span.Fail(o.err)
		return o
	}
	switch {
	case o.status == http.StatusTooManyRequests:
		o.shed = true
		return o
	case o.status/100 != 2:
		o.err = fmt.Errorf("%s %s: status %d: %s", r.kind, r.model, o.status, strings.TrimSpace(string(body)))
		span.Fail(o.err)
		return o
	}
	if firstAt.IsZero() {
		firstAt = o.end
	}
	o.ttft = firstAt.Sub(from)
	d, err := decode(r.kind, body)
	if err == nil {
		err = c.checker.check(r, d)
	}
	if err != nil {
		o.err = fmt.Errorf("output check: %w", err)
		span.Fail(o.err)
	}
	return o
}

// get fetches a gateway listing (GET) and returns its body.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	var body []byte
	var err error
	c.gate.BlockIO(func() {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return
		}
		var resp *http.Response
		resp, err = c.http.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errors.New("GET " + path + ": status " + strconv.Itoa(resp.StatusCode))
		}
	})
	return body, err
}
