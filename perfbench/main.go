// Command perfbench is the repository's end-to-end benchmark. It boots
// the real stack — gateway, admission, placement, node router, task
// manager, swap path, checkpoint driver and store, engines — through
// cluster.New on a virtual clock, drives one workload over HTTP with at
// most nproc client connections, checks every response, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload frontdoor-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of a measured run; --trace 1
// prints the per-layer metrics of a separate traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"swapservellm/internal/cluster"
	"swapservellm/internal/config"
	"swapservellm/internal/obs"
	"swapservellm/internal/simclock"
)

// watchdog bounds a whole invocation's wall time.
const watchdog = 170 * time.Second

// epoch is the virtual clock's origin.
var epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A wedged deployment must fail the run, not hang it.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", watchdog)
		os.Exit(1)
	})
	res, err := run(os.Stdout, root, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil { // a NaN or Inf metric
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// repoRoot finds the repository checkout: the working directory when
// run from the root, its parent when run from this package.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "evaluation", "configs", "slo.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("repository checkout not found (no evaluation/configs/slo.json)")
}

// run executes one benchmark invocation and prints its provenance and
// sample counts ahead of the result.
func run(out io.Writer, root string, w *workload, seed int64, d time.Duration, traced bool) (result, error) {
	prov := map[string]any{
		"workload": w.name, "seed": seed, "seconds": d.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(),
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(out, string(line))
	if traced {
		return runTraced(out, root, w, seed, d)
	}
	return runMeasured(out, root, w, seed, d)
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// stack is one booted deployment on its own virtual clock.
type stack struct {
	w     *workload
	cfg   config.Cluster
	clock *simclock.Virtual
	gate  *simclock.Gate
	c     *cluster.Cluster
	cli   *client
	// phase is the time of day, as a fraction of the day, at which an
	// open-loop schedule starts.
	phase float64
}

// boot builds, starts and warms a deployment, returning the wall time
// from cluster.New until warm-up is done. The calling goroutine stays
// registered with the stack's clock until close.
func boot(ctx context.Context, root string, w *workload, seed int64, chk *checker, tracer func(simclock.Clock) *obs.Tracer) (*stack, time.Duration, error) {
	cfg, err := w.loadConfig(root)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{w: w, cfg: cfg, clock: simclock.NewVirtual(epoch)}
	s.gate = simclock.GateFor(s.clock)
	s.gate.Enter()
	opts := []cluster.Option{cluster.WithClock(s.clock), cluster.WithSeed(seed)}
	if tracer != nil {
		t := tracer(s.clock)
		opts = append(opts, cluster.WithTracer(t))
		ctx = obs.WithTracer(ctx, t)
	}
	t0 := time.Now()
	_, span := obs.Start(ctx, "bench.cluster_new")
	s.c, err = cluster.New(cfg, opts...)
	span.EndErr(err)
	if err != nil {
		s.gate.Exit()
		return nil, 0, err
	}
	_, span = obs.Start(ctx, "bench.start")
	err = s.c.Start(ctx)
	span.EndErr(err)
	if err != nil {
		s.gate.Exit()
		return nil, 0, err
	}
	s.cli = newClient(s.c.URL(), s.clock, runtime.NumCPU(), chk)
	if err := w.warm(ctx, s); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return s, time.Since(t0), nil
}

func (s *stack) close() {
	s.cli.close()
	s.c.Shutdown()
	s.gate.Exit()
}

// drive sends the workload until the wall deadline passes (or, with
// limit > 0, until each closed-loop client has sent limit requests or
// the open loop has issued limit arrivals).
func (s *stack) drive(ctx context.Context, seed int64, deadline time.Time, limit int) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	record := func(o outcome) {
		mu.Lock()
		outs = append(outs, o)
		mu.Unlock()
	}
	more := func(i int) bool {
		if limit > 0 {
			return i < limit
		}
		return time.Now().Before(deadline)
	}
	nproc := runtime.NumCPU()
	if s.w.open {
		next := s.w.arrivals(s.cfg, seed, s.phase)
		slots := make(chan struct{}, nproc) // one per client connection
		t0 := s.clock.Now()
		for i := 0; more(i); i++ {
			off, r := next()
			r.due = t0.Add(off)
			s.clock.Sleep(r.due.Sub(s.clock.Now()))
			wg.Add(1)
			i := i
			s.gate.Go(func() {
				defer wg.Done()
				s.gate.Block(func() { slots <- struct{}{} })
				o := s.cli.do(ctx, r, r.due)
				<-slots
				o.index = i
				record(o)
			})
		}
	} else {
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			c := c
			s.gate.Go(func() {
				defer wg.Done()
				for i := 0; more(i); i++ {
					o := s.cli.do(ctx, s.w.next(seed, c, i), s.clock.Now())
					o.client, o.index = c, i
					record(o)
				}
			})
		}
	}
	s.gate.Block(wg.Wait)
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].client != outs[j].client {
			return outs[i].client < outs[j].client
		}
		return outs[i].index < outs[j].index
	})
	return outs
}

// window is one measured stretch of a stack's life.
type window struct {
	outs     []outcome
	simStart time.Time // simulated time the window opened
	wall     time.Duration
	sim      time.Duration
	cpu      time.Duration
	allocs   uint64
	peak     uint64
	gcCPU    float64
	allCPU   float64
	counter  counters
	// peakConns is the most client connections open at once since the
	// stack booted; above nproc the run fails.
	peakConns int64
}

// add pools another segment's window into win.
func (win *window) add(seg window, index int) {
	for i := range seg.outs {
		seg.outs[i].seg = index
	}
	win.outs = append(win.outs, seg.outs...)
	win.wall += seg.wall
	win.sim += seg.sim
	win.cpu += seg.cpu
	win.allocs += seg.allocs
	win.peak = max(win.peak, seg.peak)
	win.gcCPU += seg.gcCPU
	win.allCPU += seg.allCPU
	win.peakConns = max(win.peakConns, seg.peakConns)
	if win.counter == nil {
		win.counter = counters{}
	}
	for k, v := range seg.counter {
		win.counter[k] += v
	}
}

// measure drives the workload for d of wall time and records the
// process costs over exactly that stretch.
func (s *stack) measure(ctx context.Context, seed int64, d time.Duration) window {
	before := s.counters()
	rt0 := readRuntime()
	stopSampler := startHeapSampler()
	sim0 := s.clock.Now()
	wall0 := time.Now()
	outs := s.drive(ctx, seed, wall0.Add(d), 0)
	win := window{outs: outs, simStart: sim0, wall: time.Since(wall0), sim: s.clock.Since(sim0)}
	win.peak = stopSampler()
	rt1 := readRuntime()
	win.cpu = rt1.cpu - rt0.cpu
	win.allocs = rt1.allocs - rt0.allocs
	win.gcCPU = rt1.gcCPU - rt0.gcCPU
	win.allCPU = rt1.userCPU + rt1.gcCPU - rt0.userCPU - rt0.gcCPU
	win.counter = s.counters().minus(before)
	win.peakConns = s.cli.peak.Load()
	return win
}

// runMeasured is the untraced run: end-to-end metrics only. It boots a
// fresh deployment w.segments times — setup_s is the median boot — and
// measures each for an equal share of the run with its own sub-seed,
// pooling the outcomes. Independent deployments average out how far
// one deployment's history (which snapshots sit in RAM, which spilled)
// drifts with the host scheduler; an open loop starts each at its own,
// evenly spaced, time of day so together they cover the diurnal curve.
func runMeasured(out io.Writer, root string, w *workload, seed int64, d time.Duration) (result, error) {
	ctx := context.Background()
	chk := newChecker()
	var win window
	var boots []float64
	var cfg config.Cluster
	for i := 0; i < w.segments; i++ {
		s, setup, err := boot(ctx, root, w, seed, chk, nil)
		if err != nil {
			return result{}, err
		}
		boots = append(boots, setup.Seconds())
		s.phase = (float64(i) + 0.5) / float64(w.segments)
		win.add(s.measure(ctx, seed*int64(w.segments)+int64(i), d/time.Duration(w.segments)), i)
		cfg = s.cfg
		s.close()
	}
	return endToEnd(out, w, cfg, win, median(boots))
}

// endToEnd turns a measured window into the end-to-end metrics.
func endToEnd(out io.Writer, w *workload, cfg config.Cluster, win window, setup float64) (result, error) {
	n := len(win.outs)
	if n == 0 {
		return result{}, errors.New("no requests completed in the measured window")
	}
	var ttfts []float64
	var failed, shed, met int
	for i := range win.outs {
		o := &win.outs[i]
		switch {
		case o.err != nil:
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", o.err)
		case o.shed:
			shed++
		default:
			ttfts = append(ttfts, o.ttft.Seconds())
			if o.ttft <= w.limit(cfg, o.req) {
				met++
			}
		}
	}
	sort.Float64s(ttfts)
	served := len(ttfts)
	line, _ := json.Marshal(map[string]any{"samples": map[string]any{
		"sent": n, "served": served, "failed": failed, "shed": shed, "met_limit": met,
		"beyond_p90": served - int(0.9*float64(served)), "sim_s": win.sim.Seconds(), "wall_s": win.wall.Seconds(),
	}})
	fmt.Fprintln(out, string(line))
	if served == 0 {
		return result{}, errors.New("no request was served")
	}
	m := map[string]metric{
		"ttft_p50_s":     {quantile(ttfts, 0.5), "s"},
		"ttft_p90_s":     {quantile(ttfts, 0.9), "s"},
		"slo_attainment": {float64(met) / float64(n), "share"},
		"goodput_rps":    {goodput(w, cfg, win.outs), "1/s"},
		"wall_rps":       {float64(served+shed) / win.wall.Seconds(), "1/s"},
		"cpu_ms_per_req": {float64(win.cpu) / float64(time.Millisecond) / float64(n), "ms"},
		"allocs_per_req": {float64(win.allocs) / float64(n), "count"},
		"peak_heap_mib":  {float64(win.peak) / (1 << 20), "MiB"},
		"setup_s":        {setup, "s"},
		"success_rate":   {1 - float64(failed)/float64(n), "share"},
		"admit_rate":     {1 - float64(shed)/float64(n), "share"},
	}
	return result{Correct: failed == 0 && connsOK(win), Attempted: n, Failed: failed, Metrics: m}, nil
}

// connsOK reports whether the client kept within nproc connections.
func connsOK(win window) bool {
	if win.peakConns > int64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "perfbench: %d client connections open at once, above nproc=%d\n", win.peakConns, runtime.NumCPU())
		return false
	}
	return true
}

// goodputGroup is the number of consecutive requests of one
// closed-loop client whose goodput is measured together.
const goodputGroup = 10

// goodput is requests meeting the limit per simulated second.
//
// In the open loop the arrival schedule sets the simulated span, so it
// is pooled over the run's segments. In a closed loop each client's
// simulated time is the sum of its requests' latencies, and a stall of
// the host scheduler can let virtual time jump while a request is in
// flight (see simclock.replay_divergence). There a client's goodput is
// the median over its groups of goodputGroup consecutive requests, so
// the few requests that absorb such a jump do not set the figure, and
// the workload's goodput is the sum over its clients.
func goodput(w *workload, cfg config.Cluster, outs []outcome) float64 {
	met := func(o outcome) bool { return o.ok() && o.ttft <= w.limit(cfg, o.req) }
	if w.open {
		var n, span float64
		bySeg := map[int][2]time.Time{} // first due, last response
		for _, o := range outs {
			if met(o) {
				n++
			}
			b, ok := bySeg[o.seg]
			if !ok || o.req.due.Before(b[0]) {
				b[0] = o.req.due
			}
			if o.end.After(b[1]) {
				b[1] = o.end
			}
			bySeg[o.seg] = b
		}
		for _, b := range bySeg {
			span += b[1].Sub(b[0]).Seconds()
		}
		return ratio(n, span)
	}
	byClient := map[int][]outcome{}
	for _, o := range outs { // outs are in (segment, client, index) order
		byClient[o.client] = append(byClient[o.client], o)
	}
	var total float64
	for _, seq := range byClient {
		var rates []float64
		for i := 0; i+goodputGroup <= len(seq); i += goodputGroup {
			var n, busy float64
			for _, o := range seq[i : i+goodputGroup] {
				if met(o) {
					n++
				}
				busy += o.end.Sub(o.sent).Seconds()
			}
			rates = append(rates, ratio(n, busy))
		}
		if len(rates) > 0 {
			total += median(rates)
		}
	}
	return total
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
