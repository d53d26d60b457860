package simclock

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// slowHop delays both legs of every exchange by d of wall time, as a
// loaded loopback hop does.
type slowHop struct{ d time.Duration }

func (s slowHop) RoundTrip(req *http.Request) (*http.Response, error) {
	time.Sleep(s.d)
	resp, err := http.DefaultTransport.RoundTrip(req)
	time.Sleep(s.d)
	return resp, err
}

// TestSendHoldsClockAcrossTheWire: a timer is due 1 ms after a ticketed
// request is sent over a hop that takes 5 ms of wall time each way. The
// server must see the request at the instant it was sent, and the
// client must resume at that instant too — under plain BlockIO the
// settle pass gives up after well under a millisecond of wall time and
// fires the timer first.
func TestSendHoldsClockAcrossTheWire(t *testing.T) {
	v := NewVirtual(vEpoch)
	g := v.Gate()
	g.Enter()
	defer g.Exit()

	var arrived atomic.Int64
	arrived.Store(-1)
	srv := httptest.NewServer(Serve(v, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Store(int64(v.Since(vEpoch)))
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	cli := &http.Client{Transport: slowHop{5 * time.Millisecond}}

	var fired atomic.Bool
	g.Go(func() {
		v.Sleep(time.Millisecond)
		fired.Store(true)
	})

	var err error
	g.Send(context.Background(), func(ctx context.Context) {
		var req *http.Request
		if req, err = http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil); err != nil {
			return
		}
		Stamp(req)
		var resp *http.Response
		if resp, err = cli.Do(req); err != nil {
			return
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := arrived.Load(); got != 0 {
		t.Fatalf("request arrived at +%v, want +0", time.Duration(got))
	}
	if d := v.Since(vEpoch); d != 0 || fired.Load() {
		t.Fatalf("client resumed at +%v (timer fired: %v), want +0 before the timer", d, fired.Load())
	}
}
