// Command perfbench is edgerep's end-to-end benchmark. It starts the
// edgerepd binary built from the same tree as a child process, drives its
// HTTP /admit endpoint open-loop with Poisson arrivals, kills it with
// SIGKILL at a fixed offer count, restarts it with -resume, and checks every
// decision and the recovered journal. The last stdout line is one JSON
// result; with -trace 1 it carries per-layer metrics instead of end-to-end
// ones. See README.md in this directory for the metrics, the workloads, and
// how to read a traced run.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload nosync-burst --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"edgerep/internal/server"
)

// Daemon defaults the benchmark relies on (cmd/edgerepd flags).
const (
	// sloP99 is the latency limit: edgerepd's own -slo-p99 default.
	sloP99 = 25 * time.Millisecond
	// snapshotEvery is edgerepd's -snapshot-every default.
	snapshotEvery = 20000
	// expectedArrivals is the capacity price base edgerepd uses when
	// serving without -expected.
	expectedArrivals = 1_000_000
	// ladderRatio spaces the rate ladder so a one-step flip moves
	// max_rate_rps by 5%.
	ladderRatio = 1.05
	// ladderMaxSteps bounds the search, retries included; galloping plus
	// bisection over a 1.05 grid needs about 6 rates for a knee within 2x
	// of the starting rate. Once it is spent every further rate counts as
	// failed, so the search ends on the best rate passed so far.
	ladderMaxSteps = 16
)

// mix is one benchmark workload: a traffic mix against one daemon
// configuration. Why each exists is in README.md.
type mix struct {
	name                        string
	nodes, datasets, queries, k int
	nosync                      bool
	holdMean                    float64 // seconds, exponential
	light, heavy                float64 // offers/s
	ladderFrom                  float64 // offers/s where the ladder starts, near the knee
	setups                      int     // daemon starts whose median is setup_s
	resumes                     int     // -resume restarts whose median is recover_s
}

var mixes = []mix{
	{name: "durable-default", nodes: 30, datasets: 12, queries: 60, k: 3,
		holdMean: 5, light: 400, heavy: 800, ladderFrom: 5000, setups: 9, resumes: 9},
	{name: "nosync-burst", nodes: 30, datasets: 12, queries: 60, k: 3, nosync: true,
		holdMean: 5, light: 1000, heavy: 4000, ladderFrom: 11000, setups: 9, resumes: 9},
	{name: "large-admit", nodes: 1200, datasets: 60, queries: 600, k: 10, nosync: true,
		holdMean: 1, light: 300, heavy: 1000, ladderFrom: 4000, setups: 3, resumes: 3},
}

func (w mix) instance() server.InstanceConfig {
	return server.InstanceConfig{Seed: 1, Nodes: w.nodes, Datasets: w.datasets, Queries: w.queries, F: 5, K: w.k}
}

func (w mix) daemonArgs(wal string) []string {
	c := w.instance()
	args := []string{
		"-seed", strconv.FormatInt(c.Seed, 10), "-nodes", strconv.Itoa(c.Nodes),
		"-datasets", strconv.Itoa(c.Datasets), "-queries", strconv.Itoa(c.Queries),
		"-f", strconv.Itoa(c.F), "-k", strconv.Itoa(c.K), "-journal", wal,
	}
	if w.nosync {
		args = append(args, "-nosync")
	}
	return args
}

// plan fixes the phase lengths for a run of the given seconds. The fixed
// rates alternate: rounds of one light and one heavy segment, each seg
// long, so both rates sample the host's slow and quiet spells alike
// across the whole run. killAt is the total offer count at which the
// daemon is killed: a function of the workload and run length only, never
// of the seed, so every run replays the same number of journal records at
// recovery.
type plan struct {
	warm, seg time.Duration
	rounds    int
	stepMin   time.Duration
	killAt    int
}

// segOffers is how many light-rate offers one segment holds on average:
// one segment is one p99 window (its 5th-highest latency).
const segOffers = 500

func (w mix) plan(seconds int) plan {
	s := float64(seconds) * float64(time.Second)
	p := plan{
		warm:    time.Duration(0.1 * s),
		seg:     time.Duration(segOffers / w.light * float64(time.Second)),
		stepMin: time.Duration(0.05 * s),
	}
	p.rounds = max(3, int(0.6*s/float64(2*p.seg)))
	expected := w.light*p.warm.Seconds() + (w.light+w.heavy)*p.seg.Seconds()*float64(p.rounds)
	p.killAt = int(expected*1.1) + 100
	return p
}

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
	name := flag.String("workload", "", "workload name: durable-default, nosync-burst or large-admit")
	seed := flag.Int64("seed", 1, "arrival seed: query mix, inter-arrival gaps and holds")
	seconds := flag.Int("seconds", 30, "measured seconds: warm-up, segments and ladder steps scale with it")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	bin := flag.String("daemon", "", "edgerepd binary built from the tree under test")
	work := flag.String("work", "", "scratch directory for journals and logs")
	flag.Parse()

	var w *mix
	for i := range mixes {
		if mixes[i].name == *name {
			w = &mixes[i]
		}
	}
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *bin == "" || *work == "":
		fail(errors.New("-daemon and -work are required"))
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fail(err)
	}
	res, host, err := runBench(*w, *seed, *seconds, *trace == 1, *bin, dir)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail(fmt.Errorf("a metric is not a finite number: %+v", res.Metrics))
		}
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(hostLine))
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run is one benchmark run's state: the daemon currently serving and the
// phases driven against it, in order.
type run struct {
	w       mix
	plan    plan
	bin     string
	dir     string
	rng     *rand.Rand
	serving *daemon
	wal     string // the serving daemon's journal directory

	setups                    []float64
	recovers                  []float64
	warm, light, heavy, topup *phase // light and heavy: all their segments
	lightSegs, heavySegs      []*phase
	steps                     []ladderStep
	maxRate                   float64
	peakRSS                   float64
	dijkstra                  float64
	heavyEpochs, heavyOffers  float64 // /metrics epoch-size deltas
	heavyTicks                int64
}

func runBench(w mix, seed int64, seconds int, traced bool, bin, dir string) (*result, hostFacts, error) {
	r := &run{w: w, plan: w.plan(seconds), bin: bin, dir: dir, rng: newRand(seed)}
	// Flush what the build just wrote (two fresh binaries) before the
	// fsync sample.
	syscall.Sync()
	host, err := probeHost(dir)
	if err != nil {
		return nil, host, err
	}
	err = r.drive()
	if r.serving != nil {
		r.serving.kill()
	}
	if err != nil {
		return nil, host, err
	}
	v, err := verify(r)
	if err != nil {
		return nil, host, err
	}
	for _, msg := range v.violations {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", msg)
	}
	res := &result{Correct: len(v.violations) == 0}
	for _, ph := range r.allPhases() {
		res.Attempted += len(ph.offers)
		for _, o := range ph.out {
			if !o.ok {
				if res.Failed == 0 {
					fmt.Fprintf(os.Stderr, "perfbench: first failed offer: %s\n", o.err)
				}
				res.Failed++
			}
		}
	}
	e2e := r.endToEnd()
	if !traced {
		res.Metrics = e2e
		return res, host, nil
	}
	layers, err := r.layers(v)
	if err != nil {
		return nil, host, err
	}
	for k, m := range e2e {
		layers["traced."+k] = m
	}
	// The fixed-rate p99s are reported only here: see tailMetrics.
	for k, m := range r.tailMetrics() {
		layers["traced."+k] = m
	}
	res.Metrics = layers
	return res, host, nil
}

// drive runs phases 1-6: set-up, warm-up, light and heavy segments, kill
// and resume, then the rate ladder on the resumed daemon. The first start
// keeps serving; the other timed starts (set-ups between segments,
// resumes between ladder steps) run while the serving daemon idles, so
// the starts setup_s and recover_s summarise are spread across the run
// instead of sampling the host at one moment.
func (r *run) drive() error {
	wal := filepath.Join(r.dir, "wal-setup-0")
	d, took, err := r.start(r.w.daemonArgs(wal))
	if err != nil {
		return err
	}
	r.setups = append(r.setups, took.Seconds())
	r.serving, r.wal = d, wal
	m, err := r.serving.metrics()
	if err != nil {
		return err
	}
	r.dijkstra = m["edgerep_graph_dijkstra_calls"]

	g := newGenerator(r.serving.base)
	// The warm-up's arrivals are the same in every run: the first
	// admissions fix where replicas go (at most K per dataset), and that
	// placement shapes every later decision, so a seed-drawn warm-up made
	// the 30-node admitted share differ by a fifth between seeds.
	r.warm = g.run(schedule(newRand(0), r.w.light, r.plan.warm, r.w.queries, r.w.holdMean))
	for i := 0; i < r.plan.rounds; i++ {
		r.lightSegs = append(r.lightSegs, g.run(schedule(r.rng, r.w.light, r.plan.seg, r.w.queries, r.w.holdMean)))
		if err := r.timeSetup(); err != nil {
			return err
		}
		m0, err := r.serving.metrics()
		if err != nil {
			return err
		}
		t0, err := r.serving.cpuTicks()
		if err != nil {
			return err
		}
		r.heavySegs = append(r.heavySegs, g.run(schedule(r.rng, r.w.heavy, r.plan.seg, r.w.queries, r.w.holdMean)))
		m1, err := r.serving.metrics()
		if err != nil {
			return err
		}
		t1, err := r.serving.cpuTicks()
		if err != nil {
			return err
		}
		r.heavyEpochs += m1["edgerep_server_epoch_queries_count"] - m0["edgerep_server_epoch_queries_count"]
		r.heavyOffers += m1["edgerep_server_epoch_queries_sum"] - m0["edgerep_server_epoch_queries_sum"]
		r.heavyTicks += t1 - t0
		if err := r.timeSetup(); err != nil {
			return err
		}
	}
	for len(r.setups) < r.w.setups {
		if err := r.timeSetup(); err != nil {
			return err
		}
	}
	r.light, r.heavy = concat(r.lightSegs), concat(r.heavySegs)

	logPhase("warm-up", r.w.light, r.warm)
	logPhase("light", r.w.light, r.light)
	logPhase("heavy", r.w.heavy, r.heavy)
	sent := len(r.warm.offers) + len(r.light.offers) + len(r.heavy.offers)
	if sent >= r.plan.killAt {
		return fmt.Errorf("phases sent %d offers, past the kill count %d", sent, r.plan.killAt)
	}
	r.topup = g.run(scheduleN(r.rng, r.w.heavy, r.plan.killAt-sent, r.w.queries, r.w.holdMean))
	g.close()

	// Kill with nothing in flight and keep the journal as the kill left it
	// for the exactly-once check. The first -resume restart serves the
	// ladder from its own copy; the other timed restarts all recover one
	// more copy: a restart killed right after /healthz appends nothing.
	if r.peakRSS, err = r.serving.peakRSSMiB(); err != nil {
		return err
	}
	r.serving.kill()
	r.serving = nil
	killed, wal := filepath.Join(r.dir, "wal-killed"), filepath.Join(r.dir, "wal-resume")
	for _, dst := range []string{killed, wal, filepath.Join(r.dir, "wal-side")} {
		if err := copyDir(r.wal, dst); err != nil {
			return err
		}
	}
	d, took, err = r.start(append(r.w.daemonArgs(wal), "-resume"))
	if err != nil {
		return err
	}
	r.recovers = append(r.recovers, took.Seconds())
	r.serving, r.wal = d, wal
	rss, err := r.serving.peakRSSMiB()
	if err != nil {
		return err
	}
	r.peakRSS = math.Max(r.peakRSS, rss)

	g = newGenerator(r.serving.base)
	defer g.close()
	if err := r.ladder(g); err != nil {
		return err
	}
	for len(r.recovers) < r.w.resumes {
		// Keep the remaining restarts apart, so they sample the host's
		// spells as the ones between ladder steps do.
		time.Sleep(2 * r.plan.stepMin)
		if err := r.timeResume(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup_s runs %v, recover_s runs %v\n", r.setups, r.recovers)
	return nil
}

// timeSetup times one more start on a fresh journal, if set-up still has
// starts to take, and kills it.
func (r *run) timeSetup() error {
	if len(r.setups) >= r.w.setups {
		return nil
	}
	wal := filepath.Join(r.dir, fmt.Sprintf("wal-setup-%d", len(r.setups)))
	d, took, err := r.start(r.w.daemonArgs(wal))
	if err != nil {
		return err
	}
	d.kill()
	r.setups = append(r.setups, took.Seconds())
	return nil
}

// timeResume times one more -resume restart on the side copy of the
// killed journal, if recovery still has restarts to take, and kills it.
func (r *run) timeResume() error {
	if len(r.recovers) >= r.w.resumes {
		return nil
	}
	d, took, err := r.start(append(r.w.daemonArgs(filepath.Join(r.dir, "wal-side")), "-resume"))
	if err != nil {
		return err
	}
	d.kill()
	r.recovers = append(r.recovers, took.Seconds())
	return nil
}

// start writes back all dirty pages and then starts a daemon, so that no
// writeback or discard of files an earlier step wrote or deleted lands on
// the timed start or on the fsyncs of the phase that follows. Journals of
// earlier starts are kept until the run ends for the same reason.
func (r *run) start(args []string) (*daemon, time.Duration, error) {
	syscall.Sync()
	return startDaemon(r.bin, args, filepath.Join(r.dir, "daemon.log"))
}

func (r *run) allPhases() []*phase {
	out := r.ackedBeforeKill()
	for _, s := range r.steps {
		out = append(out, s.ph)
	}
	return out
}

// ackedBeforeKill is every phase the killed daemon answered.
func (r *run) ackedBeforeKill() []*phase { return []*phase{r.warm, r.light, r.heavy, r.topup} }

type ladderStep struct {
	k   int
	dur time.Duration
	ph  *phase
}

// ladder finds the highest rate on the grid ladderFrom*1.05^k whose step meets
// p99 <= 25 ms with no failed offer and no growing backlog: it gallops
// from k=0 (up on a pass, down on a fail) until the outcome flips, then
// bisects. Failed offers count as missing the limit.
func (r *run) ladder(g *generator) error {
	rate := func(k int) float64 { return r.w.ladderFrom * math.Pow(ladderRatio, float64(k)) }
	// A failing step is run once more on a fresh draw and passes if the
	// retry does: a one-off stall (a journal snapshot, a neighbour's burst)
	// fails one attempt, a saturated daemon fails both.
	try := func(k int) (bool, error) {
		rt := rate(k)
		dur := time.Duration(1000 / rt * float64(time.Second))
		if dur < r.plan.stepMin {
			dur = r.plan.stepMin
		}
		for attempt := 0; attempt < 2; attempt++ {
			if len(r.steps) == ladderMaxSteps {
				return false, nil
			}
			ph := g.run(schedule(r.rng, rt, dur, r.w.queries, r.w.holdMean))
			pass := meetsLimit(ph)
			r.steps = append(r.steps, ladderStep{k: k, dur: dur, ph: ph})
			logPhase(fmt.Sprintf("ladder k=%d pass=%v", k, pass), rt, ph)
			if err := r.timeResume(); err != nil {
				return false, err
			}
			if pass {
				return true, nil
			}
		}
		return false, nil
	}
	var lo, hi int
	pass, err := try(0)
	if err != nil {
		return err
	}
	if pass {
		for inc := 1; ; inc *= 2 {
			hi = lo + inc
			if pass, err = try(hi); err != nil {
				return err
			}
			if !pass {
				break
			}
			lo = hi
		}
	} else {
		for inc := 1; ; inc *= 2 {
			lo = hi - inc
			if rate(lo) < r.w.light {
				// Nothing passed down to the light rate. Report the lowest
				// rate tried, an upper bound on the knee, rather than
				// stepping on down for minutes.
				fmt.Fprintf(os.Stderr, "perfbench: no ladder rate down to %.0f/s met the limit; max_rate_rps is an upper bound\n", rate(hi))
				r.maxRate = r.offeredRate(hi)
				return nil
			}
			if pass, err = try(lo); err != nil {
				return err
			}
			if pass {
				break
			}
			hi = lo
		}
	}
	for hi-lo > 1 {
		m := lo + (hi-lo)/2
		if pass, err = try(m); err != nil {
			return err
		}
		if pass {
			lo = m
		} else {
			hi = m
		}
	}
	r.maxRate = r.offeredRate(lo)
	return nil
}

// offeredRate is the rate the last step at grid point k actually carried
// (its Poisson draw over its duration), not the grid value.
func (r *run) offeredRate(k int) float64 {
	rt := 0.0
	for _, st := range r.steps {
		if st.k == k {
			rt = float64(len(st.ph.offers)) / st.dur.Seconds()
		}
	}
	return rt
}

// meetsLimit decides one ladder step: no offer failed, the step's pooled
// p99 is within the limit, and so is the median of its last tenth (a
// growing backlog shows there first).
func meetsLimit(ph *phase) bool {
	for _, o := range ph.out {
		if !o.ok {
			return false
		}
	}
	lat := latencies(ph.out)
	tail := append([]float64(nil), lat[len(lat)-len(lat)/10:]...)
	return quantile(lat, 0.99) <= float64(sloP99) && median(tail) <= float64(sloP99)
}

// segQuantile is a fixed-rate latency figure in ns: the smallest over a
// rate's segments of each segment's q-quantile. The host only ever adds
// delay (a neighbour's disk burst, CPU steal), and a slow spell spoils
// whole segments, so the quietest segment carries the daemon's own
// latency, as the fastest of repeated timings does; a slowdown the daemon
// causes in every segment still moves it.
func segQuantile(segs []*phase, q float64) float64 {
	best := math.Inf(1)
	for _, ph := range segs {
		best = math.Min(best, quantile(latencies(ph.out), q))
	}
	return best
}

// concat joins phases run one after another into one, in order.
func concat(phs []*phase) *phase {
	out := &phase{}
	for _, ph := range phs {
		out.offers = append(out.offers, ph.offers...)
		out.out = append(out.out, ph.out...)
		out.batches = append(out.batches, ph.batches...)
		out.lags = append(out.lags, ph.lags...)
		out.wall += ph.wall
		out.inFlight = max(out.inFlight, ph.inFlight)
	}
	return out
}

// logPhase prints one phase's shape to stderr; the result line is stdout's.
func logPhase(name string, rate float64, ph *phase) {
	lat := latencies(ph.out)
	batches := make([]float64, len(ph.batches))
	for i, b := range ph.batches {
		batches[i] = float64(b)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %-22s rate=%8.1f/s offers=%6d wall=%6.2fs p50=%7.2fms p99(pooled)=%7.2fms batch=%5.2f\n",
		name, rate, len(ph.offers), ph.wall.Seconds(), median(lat)/1e6, quantile(lat, 0.99)/1e6, mean(batches))
}

// latencies returns per-offer latency in ns, +Inf for a failed offer.
func latencies(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = float64(o.lat)
		if !o.ok {
			xs[i] = math.Inf(1)
		}
	}
	return xs
}

// endToEnd computes the end-to-end metrics.
func (r *run) endToEnd() map[string]metric {
	admitted, offered := 0, 0
	for _, ph := range r.ackedBeforeKill() {
		offered += len(ph.out)
		for _, o := range ph.out {
			if o.ok && o.resp.Admitted {
				admitted++
			}
		}
	}
	return map[string]metric{
		"setup_s":      {median(append([]float64(nil), r.setups...)), "s"},
		"recover_s":    {trimmedMean(r.recovers), "s"},
		"p50_ms.light": {segQuantile(r.lightSegs, 0.5) / 1e6, "ms"},
		"p50_ms.heavy": {segQuantile(r.heavySegs, 0.5) / 1e6, "ms"},
		"max_rate_rps": {r.maxRate, "1/s"},
		"admit_ratio":  {float64(admitted) / float64(offered), "fraction"},
		"peak_rss_mb":  {r.peakRSS, "MiB"},
	}
}

// tailMetrics are the fixed-rate p99s. They are per-layer metrics of a
// traced run, not end-to-end ones: on a shared host a neighbour's slow
// spell doubles them in whole runs, so ten runs' spread is far wider than
// any bound a regression check could use (README.md, "Recorded figures").
// The 25 ms p99 limit itself still decides every ladder step.
func (r *run) tailMetrics() map[string]metric {
	return map[string]metric{
		"p99_ms.light": {segQuantile(r.lightSegs, 0.99) / 1e6, "ms"},
		"p99_ms.heavy": {segQuantile(r.heavySegs, 0.99) / 1e6, "ms"},
	}
}

// copyDir copies the regular files of src into dst and fsyncs them, so
// the copy's writeback does not compete with the daemon's fsyncs later.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
