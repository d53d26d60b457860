package simclock

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// errReset breaks an in-process exchange whose server closed or whose
// client hung up, as a reset TCP connection would.
var errReset = errors.New("simclock: connection reset")

// maxPooledBuf caps the response buffer a recycled exchange keeps: a
// larger one is dropped, so one big response does not pin its memory.
const maxPooledBuf = 64 << 10

// statusOK is the status line of a 200, the one nearly every exchange
// sends, formatted once.
var statusOK = strconv.Itoa(http.StatusOK) + " " + http.StatusText(http.StatusOK)

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
	http *http.Server
	ln   net.Listener
	addr string       // ln's address, formatted once
	v    *Virtual     // nil off Virtual
	h    http.Handler // the handler in-process exchanges run

	mu     sync.Mutex
	live   map[*exchange]struct{} // in-process exchanges whose handler has not returned
	closed bool                   // Close ran: new in-process exchanges fail at once
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
		s.live = make(map[*exchange]struct{})
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
		// Held across the aborts: an exchange leaves live before its
		// handler's side lets go of it, so none is recycled under us.
		s.mu.Lock()
		s.closed = true
		for x := range s.live {
			x.abort(errReset)
		}
		s.mu.Unlock()
	}
	return s.http.Close()
}

// Transport returns the HTTP transport for clients on clock: under
// Virtual, requests to an address a Server registered are served
// in-process and any other address goes over TCP; other clocks get
// http.DefaultTransport.
func Transport(clock Clock) http.RoundTripper {
	if v, ok := clock.(*Virtual); ok {
		return transport{v}
	}
	return http.DefaultTransport
}

// JSONHeader is a request header carrying only the JSON Content-Type,
// for NewRequest callers to share: nobody writes to it.
var JSONHeader = http.Header{"Content-Type": {"application/json"}}

// noHeader is the header of a request built with none.
var noHeader = http.Header{}

// NewRequest builds a request to path on base, a parsed URL that is
// shared and never written, carrying body (nil for none) and header,
// which the request shares too (nil for none): neither Transport nor an
// in-process handler writes to a request. It is
// http.NewRequestWithContext for internal callers that reach the same
// server again and again, without the URL parse and the header map.
func NewRequest(ctx context.Context, method string, base *url.URL, path string, body []byte, header http.Header) *http.Request {
	u := base
	if path != "" {
		cp := *base
		cp.Path = path
		u = &cp
	}
	if header == nil {
		header = noHeader
	}
	req := &http.Request{
		Method: method, URL: u, Host: u.Host, Header: header,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if len(body) > 0 {
		b := &bodyReader{body: body}
		b.Reset(body)
		req.Body, req.GetBody, req.ContentLength = b, b.reopen, int64(len(body))
	}
	return req.WithContext(ctx)
}

// bodyReader is a NewRequest body: the payload's reader and its own
// Close, in one allocation.
type bodyReader struct {
	bytes.Reader
	body []byte
}

// Close implements io.Closer.
func (*bodyReader) Close() error { return nil }

// reopen is the request's GetBody: a fresh reader over the same bytes,
// which net/http's transport uses to resend on a reused connection.
func (b *bodyReader) reopen() (io.ReadCloser, error) {
	r := &bodyReader{body: b.body}
	r.Reset(b.body)
	return r, nil
}

// Send runs req on rt as http.Client.Do would for a request that is
// never redirected and carries no cookies or timeout: a failed round
// trip comes back wrapped in the *url.Error http.Client returns.
func Send(rt http.RoundTripper, req *http.Request) (*http.Response, error) {
	resp, err := rt.RoundTrip(req)
	if err != nil {
		op := req.Method
		if op == "" {
			op = http.MethodGet
		}
		op = op[:1] + strings.ToLower(op[1:])
		return nil, &url.Error{Op: op, URL: req.URL.Redacted(), Err: err}
	}
	return resp, nil
}

type transport struct{ v *Virtual }

// RoundTrip implements http.RoundTripper. The handler gets req itself
// on a context the exchange cancels (no handler writes to its request),
// and its header map becomes the response's.
func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.v
	v.mu.Lock()
	s := v.routes[req.URL.Host]
	var x *exchange
	if n := len(v.xfree); s != nil && n > 0 {
		x, v.xfree = v.xfree[n-1], v.xfree[:n-1]
	}
	v.mu.Unlock()
	if s == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	if x == nil {
		x = newExchange(v)
	}
	ctx, cancel := context.WithCancel(req.Context())
	sreq := req.WithContext(ctx)
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	x.srv, x.req, x.sreq, x.cancel, x.refs = s, req, sreq, cancel, 2

	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.live[x] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		cancel()
		if req.Body != nil {
			req.Body.Close()
		}
		x.refs = 1
		x.release()
		return nil, errReset
	}

	v.gate.Go(x.serve)
	x.wait(x.committed)
	x.mu.Lock()
	if r := x.resp; r != nil {
		x.mu.Unlock()
		return &r.Response, nil
	}
	err := x.err
	if err == nil {
		// Only the client's context ends the wait without an end; it
		// cancelled the handler's too.
		err = x.breakLocked(req.Context().Err())
	}
	x.clientDone = true
	x.mu.Unlock()
	x.release()
	return nil, err
}

// exchange is one in-process round trip: the handler's ResponseWriter
// on one side and, through a reply, the client's response on the
// other. Exchanges are recycled through Virtual.xfree: each holds a
// reference for the handler's side, dropped once the handler returned
// and its end was signalled, and one for the client's, dropped once
// the client read the end, closed the body or got no response. The
// last one out recycles it, so nothing from one use reaches the next.
type exchange struct {
	v      *Virtual
	srv    *Server
	req    *http.Request      // the client's
	sreq   *http.Request      // the handler's: req on a context cancel ends
	cancel context.CancelFunc // cancels the handler's request context
	signal chan struct{}      // pinged after every change below
	serve  func()             // runs the handler, built once

	committed cond // the response committed or the exchange ended
	readable  cond // flushed bytes wait or the exchange ended

	mu         sync.Mutex
	gen        uint64      // counts uses: a reply of an earlier use is stale
	refs       int         // the sides (and transient users) still holding the exchange
	clientDone bool        // the client's side let go
	readers    int         // client reads in progress
	header     http.Header // the handler's, until the response commits
	status     int         // the first WriteHeader; 0 means 200
	resp       *reply      // non-nil once the response committed
	buf        []byte      // written but not yet read, after lent
	lent       int         // bytes at buf's front the last take handed out
	sent       int         // bytes after lent flushed to the client
	err        error       // io.EOF once the handler returned, or why the exchange broke
}

// newExchange builds an exchange with its waits and handler run, which
// every later use of it shares.
func newExchange(v *Virtual) *exchange {
	x := &exchange{v: v, signal: make(chan struct{}, 1)}
	x.committed = x.cond(func() bool { return x.resp != nil || x.err != nil })
	x.readable = x.cond(func() bool { return x.sent > 0 || x.err != nil })
	x.serve = func() {
		defer x.finish()
		x.srv.h.ServeHTTP(x, x.sreq)
	}
	return x
}

// Header implements http.ResponseWriter. Once the response committed,
// the map went to the client, and the handler gets a copy whose
// changes reach nobody, as with net/http. Header and WriteHeader are
// only called on the handler's goroutine, which alone writes header,
// status and resp.
func (x *exchange) Header() http.Header {
	if x.header == nil {
		if x.resp != nil {
			x.header = x.resp.Header.Clone()
		} else {
			x.header = make(http.Header)
		}
	}
	return x.header
}

// WriteHeader implements http.ResponseWriter.
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
// The handler's header map becomes the response's.
func (x *exchange) sendLocked() {
	if x.err == nil {
		x.sent = len(x.buf) - x.lent
	}
	if x.resp != nil {
		return
	}
	code, status := x.status, statusOK
	if code == 0 || code == http.StatusOK {
		code = http.StatusOK
	} else {
		status = strconv.Itoa(code) + " " + http.StatusText(code)
	}
	h := x.header
	x.header = nil
	if h == nil {
		h = make(http.Header)
	}
	if _, ok := h["Content-Type"]; !ok && len(x.buf) > 0 {
		h.Set("Content-Type", http.DetectContentType(x.buf))
	}
	r := &reply{x: x, gen: x.gen}
	r.Response = http.Response{
		Status: status, StatusCode: code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: r, ContentLength: -1, Request: x.req,
	}
	x.resp = r
}

// finish ends the handler's side as net/http does when a handler
// returns: the response is sent, the client reads io.EOF after it, and
// the request context is cancelled.
func (x *exchange) finish() {
	x.mu.Lock()
	x.sendLocked()
	if err := x.req.Context().Err(); err != nil && x.err == nil {
		x.breakLocked(err) // the client hung up first
	} else if x.err == nil {
		x.err = io.EOF
	}
	x.mu.Unlock()
	x.cancel()
	if x.req.Body != nil {
		x.req.Body.Close()
	}
	x.notify()
	s := x.srv
	s.mu.Lock()
	delete(s.live, x)
	s.mu.Unlock()
	x.release()
}

// breakLocked ends an exchange still open with err: unread bytes are
// dropped, the client reads err and the handler's writes fail. It
// returns err.
func (x *exchange) breakLocked(err error) error {
	x.err, x.buf, x.lent, x.sent = err, x.buf[:0], 0, 0
	return err
}

// abort breaks an exchange still open and cancels the handler's request
// context. The caller holds a reference to x.
func (x *exchange) abort(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.breakLocked(err)
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

// release drops one reference; the last one recycles the exchange.
func (x *exchange) release() {
	x.mu.Lock()
	x.refs--
	if x.refs > 0 {
		x.mu.Unlock()
		return
	}
	x.gen++
	x.srv, x.req, x.sreq, x.cancel = nil, nil, nil, nil
	x.clientDone, x.readers, x.header, x.status, x.resp = false, 0, nil, 0, nil
	if cap(x.buf) > maxPooledBuf {
		x.buf = nil
	}
	x.buf, x.lent, x.sent, x.err = x.buf[:0], 0, 0, nil
	select {
	case <-x.signal:
	default:
	}
	x.mu.Unlock()
	v := x.v
	v.mu.Lock()
	v.xfree = append(v.xfree, x)
	v.mu.Unlock()
}

// cond is one condition a client waits on: ready checks it under x.mu,
// block waits until it holds. An exchange builds each once. A cancelled
// client context also ends the wait.
type cond struct {
	ready func() bool
	block func()
}

// cond builds the wait for holds, which reads fields x.mu guards.
func (x *exchange) cond(holds func() bool) cond {
	c := cond{ready: func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		return holds() || x.req.Context().Err() != nil
	}}
	c.block = func() {
		done := x.req.Context().Done()
		for !c.ready() {
			select {
			case <-x.signal:
			case <-done:
			}
		}
	}
	return c
}

// wait parks the client until c holds.
func (x *exchange) wait(c cond) { x.v.gate.BlockOn(x, c.ready, c.block) }

// reply is the client's side of one use of an exchange: the response
// and its body, in one allocation. It outlives the use: once the
// client's side let go, its body returns end.
type reply struct {
	http.Response
	x   *exchange
	gen uint64 // the use of x this reply belongs to
	end error  // what the body returns once the client's side let go; guarded by x.mu
}

// openLocked reports whether r's use of x is still open on the
// client's side.
func (x *exchange) openLocked(r *reply) bool { return x.gen == r.gen && !x.clientDone }

// take waits for flushed bytes and hands up to max of them to the
// client; with none left it returns the exchange's end and lets go of
// the client's side. The bytes stay valid until the client's next take.
func (r *reply) take(max int) ([]byte, error) {
	x := r.x
	x.mu.Lock()
	if !x.openLocked(r) {
		x.mu.Unlock()
		return nil, r.end
	}
	if x.lent > 0 {
		// The client is done with what the last take handed out.
		x.buf = x.buf[:copy(x.buf, x.buf[x.lent:])]
		x.lent = 0
	}
	x.readers++
	x.mu.Unlock()
	x.wait(x.readable)
	x.mu.Lock()
	x.readers--
	if x.err == nil {
		if err := x.req.Context().Err(); err != nil {
			x.breakLocked(err)
		}
	}
	n := min(max, x.sent)
	if n > 0 {
		out := x.buf[:n]
		x.lent, x.sent = n, x.sent-n
		x.mu.Unlock()
		return out, nil
	}
	end := x.err
	r.end, x.clientDone = end, true
	x.mu.Unlock()
	x.release()
	return nil, end
}

// Read implements io.Reader.
func (r *reply) Read(p []byte) (int, error) {
	out, err := r.take(len(p))
	return copy(p, out), err
}

// WriteTo implements io.WriterTo: io.Copy hands w each flushed run of
// bytes directly instead of allocating a copy buffer.
func (r *reply) WriteTo(w io.Writer) (n int64, err error) {
	for {
		out, end := r.take(math.MaxInt)
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
// exchange, as closing a connection mid-response does; a read parked
// meanwhile wakes to the break and lets go of the client's side itself.
func (r *reply) Close() error {
	x := r.x
	x.mu.Lock()
	if !x.openLocked(r) {
		x.mu.Unlock()
		return nil
	}
	x.refs++ // held across the abort's wake-ups
	x.mu.Unlock()
	x.abort(errReset)
	x.mu.Lock()
	if x.readers == 0 && !x.clientDone {
		r.end = x.err
		x.clientDone = true
		x.refs--
	}
	x.mu.Unlock()
	x.release()
	return nil
}
