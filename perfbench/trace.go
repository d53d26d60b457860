package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// maxSpans is the traced run's span retention cap, far above what a
// run records, so obs.dropped_spans stays 0.
const maxSpans = 1 << 22

// runTraced is the per-layer run. It measures the workload untraced
// and then traced for half the run length each (their wall_rps ratio
// is the tracing overhead), then replays a fixed prefix of the workload
// twice on fresh deployments to measure how far simulated time depends
// on the host scheduler.
func runTraced(out io.Writer, root string, w *workload, seed int64, d time.Duration) (result, error) {
	ctx := context.Background()
	chk := newChecker()

	s, _, err := boot(ctx, root, w, seed, chk, nil)
	if err != nil {
		return result{}, err
	}
	plain := s.measure(ctx, seed, d/2)
	s.close()

	var tracer *obs.Tracer
	newTracer := func(clock simclock.Clock) *obs.Tracer {
		tracer = obs.NewTracer(clock)
		tracer.SetMaxSpans(maxSpans)
		return tracer
	}
	s, _, err = boot(ctx, root, w, seed, chk, newTracer)
	if err != nil {
		return result{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		s.close()
		return result{}, err
	}
	traced := s.measure(obs.WithTracer(ctx, tracer), seed, d/2)
	pprof.StopCPUProfile()
	s.close()

	div, err := replayDivergence(ctx, root, w, seed, chk)
	if err != nil {
		return result{}, err
	}
	shares, profSamples, err := pkgShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	all := append(append([]outcome(nil), plain.outs...), traced.outs...)
	var failed int
	for _, o := range all {
		if o.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", o.err)
		}
	}
	spans := tracer.Snapshot()
	if err := writeTrace(root, w, tracer); err != nil {
		return result{}, err
	}
	line, _ := json.Marshal(map[string]any{"samples": map[string]any{
		"untraced_sent": len(plain.outs), "traced_sent": len(traced.outs),
		"spans": len(spans), "cpu_profile_samples": profSamples,
	}})
	fmt.Fprintln(out, string(line))

	m := perLayer(w, traced, spans, shares)
	m["obs.trace_overhead"] = metric{ratio(wallRPS(plain), wallRPS(traced)) - 1, "ratio"}
	m["obs.dropped_spans"] = metric{float64(tracer.DroppedSpans()), "count"}
	m["simclock.replay_divergence"] = metric{div, "share"}
	return result{Correct: failed == 0 && connsOK(plain) && connsOK(traced), Attempted: len(all), Failed: failed, Metrics: m}, nil
}

// writeTrace saves the traced segment's spans, the program's and the
// benchmark's own, as Chrome trace_event JSON under .bench_build.
func writeTrace(root string, w *workload, tracer *obs.Tracer) error {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		return err
	}
	if err := tracer.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func wallRPS(win window) float64 {
	var done int
	for _, o := range win.outs {
		if o.err == nil {
			done++
		}
	}
	return float64(done) / win.wall.Seconds()
}

// perLayer derives the per-layer metrics of one traced window.
func perLayer(w *workload, win window, spans []obs.SpanData, shares map[string]float64) map[string]metric {
	n := float64(len(win.outs))
	c := win.counter
	// Spans of the boot and warm-up precede the window.
	var inWin []obs.SpanData
	for _, sp := range spans {
		if !sp.Start.Before(win.simStart) {
			inWin = append(inWin, sp)
		}
	}
	self := selfTimes(inWin)
	perReq := func(names ...string) metric {
		var sum time.Duration
		for name, d := range self {
			for _, want := range names {
				if name == want || (strings.HasSuffix(want, ".") && strings.HasPrefix(name, want)) {
					sum += d
				}
			}
		}
		return metric{sum.Seconds() / n, "s"}
	}

	var rtts, lateness []float64
	var late int
	for _, o := range win.outs {
		rtts = append(rtts, float64(o.rttWall)/float64(time.Millisecond))
		if w.open {
			l := o.sent.Sub(o.req.due).Seconds()
			lateness = append(lateness, l)
			if l > 0 {
				late++
			}
		}
	}
	sort.Float64s(rtts)
	sort.Float64s(lateness)

	fetch := c["ckpt_fetch_bytes_host_ram"] + c["ckpt_fetch_bytes_peer_ram"] +
		c["ckpt_fetch_bytes_local_disk"] + c["ckpt_fetch_bytes_peer_disk"]
	wallCPU := win.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
	return map[string]metric{
		"proxy.cache_hit_ratio":       {ratio(c["proxy_cache_hits"], c["proxy_cache_hits"]+c["proxy_cache_misses"]), "ratio"},
		"proxy.cpu_share":             {shares["proxy"], "share"},
		"cluster.placement_hit_ratio": {ratio(c["placement_hits"], c["placement_total"]), "ratio"},
		"cluster.gateway_self_s":      perReq("gateway.request"),
		"cluster.retries_per_kreq":    {1000 * c["cross_node_retries"] / n, "1/kreq"},
		"sched.prewarm_hit_ratio":     {ratio(c["sched_prefetch_hits"], c["sched_prefetch_hits"]+c["sched_prefetch_misses"]), "ratio"},
		"sched.shed_per_kreq":         {1000 * c["sched_shed"] / n, "1/kreq"},
		"core.swaps_per_req":          {c["swap_ins"] / n, "count"},
		"core.queue_wait_s":           perReq("request"),
		"core.reserve_wait_s":         perReq("reserve"),
		"core.exchange_s":             perReq("swap.exchange"),
		"cudackpt.checkpoint_s":       perReq("ckpt.checkpoint"),
		"cudackpt.restore_s":          perReq("ckpt.restore"),
		"container.ctr_s":             perReq("ctr.", "cgroup."),
		"cudackpt.cpu_share":          {shares["cudackpt"], "share"},
		"ckptstore.dedup_ratio":       {ratio(c["ckpt_dedup_bytes"]+c["ckpt_new_bytes"], c["ckpt_new_bytes"]), "ratio"},
		"ckptstore.fetch_s":           perReq("ckpt.fetch"),
		"ckptstore.fetch_disk_share":  {ratio(c["ckpt_fetch_bytes_local_disk"]+c["ckpt_fetch_bytes_peer_disk"], fetch), "share"},
		"engine.cpu_share":            {shares["engine"], "share"},
		"simclock.cpu_share":          {shares["simclock"], "share"},
		"simclock.wall_idle_share":    {1 - win.cpu.Seconds()/wallCPU, "share"},
		"runtime.gc_cpu_share":        {ratio(win.gcCPU, win.allCPU), "share"},
		"client.rtt_wall_ms":          {quantile(rtts, 0.5), "ms"},
		"client.late_share":           {ratio(float64(late), float64(len(lateness))), "share"},
		"client.lateness_p90_s":       {quantile(lateness, 0.9), "s"},
		"client.peak_conns":           {float64(win.peakConns), "count"},
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover. A node's "request" span is a trace root
// (the gateway→node hop is HTTP and carries no span context), so it is
// attributed as a child of the enclosing gateway.request for the same
// model: the latest-starting one whose interval contains it.
func selfTimes(spans []obs.SpanData) map[string]time.Duration {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	gw := map[string][]int{} // model -> gateway.request spans by start
	for i, s := range spans {
		if s.Name == "gateway.request" && s.Ended {
			gw[attr(s, "model")] = append(gw[attr(s, "model")], i)
		}
	}
	for _, idx := range gw {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if !s.Ended {
			continue
		}
		parent, ok := byID[s.Parent]
		if s.Parent == 0 {
			ok = false
			if s.Name == "request" {
				parent, ok = enclosing(spans, gw[attr(s, "model")], s)
			}
		}
		if ok {
			children[parent] = append(children[parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		if !s.Ended {
			continue
		}
		self[s.Name] += s.End.Sub(s.Start) - covered(spans, s, children[i])
	}
	return self
}

func attr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// enclosing finds the latest-starting span among cands (sorted by
// start) whose interval contains s.
func enclosing(spans []obs.SpanData, cands []int, s obs.SpanData) (int, bool) {
	k := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].Start.After(s.Start) })
	for k--; k >= 0; k-- {
		if c := spans[cands[k]]; !c.End.Before(s.End) {
			return cands[k], true
		}
	}
	return 0, false
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []obs.SpanData, parent obs.SpanData, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = v
		} else if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// replayDivergence replays the workload's first w.replay requests twice
// with the same seed, each on a fresh deployment, and returns the share
// of requests whose simulated TTFT (or outcome) differs between the
// two. Heartbeats, the rebalancer and every config interval run as
// configured: the figure measures how much simulated time depends on
// the host scheduler, not a tuned-away best case.
func replayDivergence(ctx context.Context, root string, w *workload, seed int64, chk *checker) (float64, error) {
	var runs [2][]outcome
	for i := range runs {
		s, _, err := boot(ctx, root, w, seed, chk, nil)
		if err != nil {
			return 0, err
		}
		runs[i] = s.drive(ctx, seed, time.Time{}, w.replay)
		s.close()
	}
	type key struct{ client, index int }
	first := map[key]outcome{}
	for _, o := range runs[0] {
		first[key{o.client, o.index}] = o
	}
	differ := 0
	for _, o := range runs[1] {
		p, ok := first[key{o.client, o.index}]
		if !ok || p.ttft != o.ttft || p.ok() != o.ok() {
			differ++
		}
	}
	return ratio(float64(differ), float64(len(runs[1]))), nil
}
