package simclock

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
)

// errReset breaks an in-process exchange whose server closed or whose
// client hung up, as a reset TCP connection would.
var errReset = errors.New("simclock: connection reset")

// Server is an HTTP server on a clock's timeline, always on a TCP
// listener. Under a Virtual clock its handler is also registered under
// the listener's address: a client using Transport reaches it without a
// socket, the handler runs on a Gate.Go goroutine, and the response
// comes back through an in-memory pipe whose reads park through
// Gate.BlockOn and whose flushes Wake the reader, so virtual time never
// moves while a request or response is in flight. A request arriving
// over the socket runs its handler registered too (Enter on arrival,
// Exit on return); its flushes and return re-arm ioGrace.
type Server struct {
	http   *http.Server
	ln     net.Listener
	addr   string             // ln's address, formatted once
	v      *Virtual           // nil off Virtual
	h      http.Handler       // the handler in-process exchanges run
	closed context.Context    // done once Close breaks the in-process exchanges
	close  context.CancelFunc // ends closed
}

// Listen serves h on addr (host:port; port 0 picks one) on clock.
func Listen(clock Clock, addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, addr: ln.Addr().String(), http: &http.Server{Handler: h}, h: h}
	if v, ok := clock.(*Virtual); ok {
		s.v = v
		s.closed, s.close = context.WithCancel(context.Background())
		v.mu.Lock()
		v.routes[s.Addr()] = s
		v.mu.Unlock()
		s.http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v.gate.Enter()
			defer v.gate.Exit()
			defer v.armGrace()
			h.ServeHTTP(edgeWriter{w, v}, r)
		})
	}
	go s.http.Serve(ln)
	return s, nil
}

// edgeWriter is a socket request's ResponseWriter.
type edgeWriter struct {
	http.ResponseWriter
	v *Virtual
}

// Flush implements http.Flusher.
func (w edgeWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	w.v.armGrace()
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.addr }

// Close stops the server at once. In-process exchanges in flight break
// as reset connections would: the client reads an error and the
// handler's request context is cancelled.
func (s *Server) Close() error {
	if v := s.v; v != nil {
		v.mu.Lock()
		delete(v.routes, s.Addr())
		v.mu.Unlock()
		s.close()
	}
	return s.http.Close()
}

// Transport returns the HTTP transport for clients on clock: under
// Virtual, requests to an address a Server registered are served
// in-process and any other address goes over TCP; other clocks get
// nil, which http.Client reads as http.DefaultTransport.
func Transport(clock Clock) http.RoundTripper {
	if v, ok := clock.(*Virtual); ok {
		return transport{v}
	}
	return nil
}

type transport struct{ v *Virtual }

// RoundTrip implements http.RoundTripper.
func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.v
	v.mu.Lock()
	s := v.routes[req.URL.Host]
	v.mu.Unlock()
	if s == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx, cancel := context.WithCancel(req.Context())
	x := &exchange{v: v, req: req, cancel: cancel, header: make(http.Header), signal: make(chan struct{}, 1)}
	x.committed = x.cond(func() bool { return x.resp != nil || x.err != nil })
	x.readable = x.cond(func() bool { return x.sent > 0 || x.err != nil })
	sreq := req.Clone(ctx)
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	x.stop = context.AfterFunc(req.Context(), func() { x.abort(req.Context().Err()) })
	unwatch := context.AfterFunc(s.closed, func() { x.abort(errReset) })
	v.gate.Go(func() {
		defer unwatch()
		defer x.finish()
		s.h.ServeHTTP(x, sreq)
	})
	x.wait(x.committed)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.resp == nil {
		x.stop()
		return nil, x.err
	}
	return x.resp, nil
}

// exchange is one in-process round trip: the handler's ResponseWriter
// on one side and, through body, the client's response on the other.
type exchange struct {
	v      *Virtual
	req    *http.Request
	cancel context.CancelFunc // cancels the handler's request context
	stop   func() bool        // ends the watch on the client's context
	signal chan struct{}      // pinged after every change below

	committed cond // the response committed or the exchange ended
	readable  cond // flushed bytes wait or the exchange ended

	mu     sync.Mutex
	header http.Header    // the handler's, until the response commits
	status int            // the first WriteHeader; 0 means 200
	resp   *http.Response // non-nil once the response committed
	buf    []byte         // written but not yet read
	sent   int            // bytes of buf flushed to the client
	err    error          // io.EOF once the handler returned, or why the exchange broke
}

// Header implements http.ResponseWriter.
func (x *exchange) Header() http.Header { return x.header }

// WriteHeader implements http.ResponseWriter. Like Header, it is only
// called on the handler's goroutine, which alone reads status.
func (x *exchange) WriteHeader(code int) {
	if x.status == 0 {
		x.status = code
	}
}

// Write implements http.ResponseWriter. As with net/http, the client
// sees the bytes at the next Flush or when the handler returns.
func (x *exchange) Write(p []byte) (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		return 0, x.err
	}
	x.buf = append(x.buf, p...)
	return len(p), nil
}

// Flush implements http.Flusher: the header and everything written so
// far go to the client.
func (x *exchange) Flush() {
	x.mu.Lock()
	x.sendLocked()
	x.mu.Unlock()
	x.notify()
}

// sendLocked commits the response, sniffing the content type from the
// first bytes written as net/http does, and flushes the written bytes.
func (x *exchange) sendLocked() {
	if x.err == nil {
		x.sent = len(x.buf)
	}
	if x.resp != nil {
		return
	}
	code := x.status
	if code == 0 {
		code = http.StatusOK
	}
	h := x.header.Clone()
	if _, ok := h["Content-Type"]; !ok && len(x.buf) > 0 {
		h.Set("Content-Type", http.DetectContentType(x.buf))
	}
	x.resp = &http.Response{
		Status: strconv.Itoa(code) + " " + http.StatusText(code), StatusCode: code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: body{x}, ContentLength: -1, Request: x.req,
	}
}

// finish ends the handler's side as net/http does when a handler
// returns: the response is sent, the client reads io.EOF after it, and
// the request context is cancelled.
func (x *exchange) finish() {
	x.mu.Lock()
	x.sendLocked()
	if err := x.req.Context().Err(); err != nil && x.err == nil {
		x.err, x.buf, x.sent = err, nil, 0 // the client hung up first
	} else if x.err == nil {
		x.err = io.EOF
	}
	x.mu.Unlock()
	x.cancel()
	if x.req.Body != nil {
		x.req.Body.Close()
	}
	x.notify()
}

// abort breaks an exchange still open: unread bytes are dropped, the
// client reads err, the handler's writes fail and its request context
// is cancelled.
func (x *exchange) abort(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.err, x.buf, x.sent = err, nil, 0
	}
	x.mu.Unlock()
	x.cancel()
	x.notify()
}

// notify tells a waiting client that the exchange changed, handing it
// its run token at once.
func (x *exchange) notify() {
	select {
	case x.signal <- struct{}{}:
	default:
	}
	x.v.gate.Wake(x)
}

// cond is one condition a client waits on: ready checks it under x.mu,
// block waits until it holds. An exchange builds each once.
type cond struct {
	ready func() bool
	block func()
}

// cond builds the wait for holds, which reads fields x.mu guards.
func (x *exchange) cond(holds func() bool) cond {
	c := cond{ready: func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		return holds()
	}}
	c.block = func() {
		for !c.ready() {
			<-x.signal
		}
	}
	return c
}

// wait parks the client until c holds.
func (x *exchange) wait(c cond) { x.v.gate.BlockOn(x, c.ready, c.block) }

// body is the client's side of an exchange.
type body struct{ x *exchange }

// take waits for flushed bytes and removes up to max of them from the
// exchange; with none left it returns the exchange's end instead.
func (x *exchange) take(max int) ([]byte, error) {
	x.wait(x.readable)
	x.mu.Lock()
	defer x.mu.Unlock()
	n := min(max, x.sent)
	out := x.buf[:n]
	x.buf, x.sent = x.buf[n:], x.sent-n
	if n == 0 {
		return nil, x.err
	}
	return out, nil
}

// Read implements io.Reader.
func (b body) Read(p []byte) (int, error) {
	out, err := b.x.take(len(p))
	return copy(p, out), err
}

// WriteTo implements io.WriterTo: io.Copy hands w each flushed run of
// bytes directly instead of allocating a copy buffer.
func (b body) WriteTo(w io.Writer) (n int64, err error) {
	for {
		out, end := b.x.take(math.MaxInt)
		if end != nil {
			if errors.Is(end, io.EOF) {
				end = nil
			}
			return n, end
		}
		m, err := w.Write(out)
		if n += int64(m); err != nil {
			return n, err
		}
	}
}

// Close implements io.Closer. Closing before the end breaks the
// exchange, as closing a connection mid-response does.
func (b body) Close() error {
	b.x.stop()
	b.x.abort(errReset)
	return nil
}
