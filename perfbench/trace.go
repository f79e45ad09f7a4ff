package main

import (
	"os"
	"path/filepath"
	"time"

	"edgerep/internal/cluster"
	"edgerep/internal/graph"
	"edgerep/internal/instrument"
	"edgerep/internal/journal"
	"edgerep/internal/online"
	"edgerep/internal/placement"
	"edgerep/internal/topology"
	"edgerep/internal/workload"
)

// clockTickUs is one /proc/<pid>/stat CPU tick (USER_HZ = 100) in µs.
const clockTickUs = 10000

// layers computes the per-layer metrics of a traced run. Stage figures
// come from the stage_ns every /admit response carries (attribution is on
// by default) over the light and heavy phases; the rest times calls into
// each module's public functions here, after the daemon has exited, so
// the traced calls never share the CPU with a measured phase.
func (r *run) layers(v *verification) (map[string]metric, error) {
	out := make(map[string]metric)
	put := func(name string, value float64, unit string) { out[name] = metric{value, unit} }

	var queue, coalesce, lookup, pricing, jrnl, fsync, ack, httpMs, sums, lats []float64
	var lags, batches []float64
	for _, ph := range []*phase{r.light, r.heavy} {
		for _, o := range ph.out {
			if !o.ok || len(o.resp.StageNs) != int(instrument.NumStages) {
				continue
			}
			st := o.resp.StageNs
			var sum int64
			for _, ns := range st {
				sum += ns
			}
			queue = append(queue, float64(st[instrument.StageQueue])/1e6)
			coalesce = append(coalesce, float64(st[instrument.StageCoalesce])/1e6)
			lookup = append(lookup, float64(st[instrument.StageLookup])/1e3)
			pricing = append(pricing, float64(st[instrument.StagePricing])/1e3)
			jrnl = append(jrnl, float64(st[instrument.StageJournal])/1e3)
			fsync = append(fsync, float64(st[instrument.StageFsync])/1e3)
			ack = append(ack, float64(st[instrument.StageAck])/1e3)
			httpMs = append(httpMs, ms(o.send)-float64(sum)/1e6)
			sums = append(sums, float64(sum))
			lats = append(lats, float64(o.lat))
		}
		for i, b := range ph.batches {
			batches = append(batches, float64(b))
			lags = append(lags, ms(ph.lags[i]))
		}
	}
	pair := func(name string, xs []float64, unit string) {
		put(name+".p50", median(xs), unit)
		put(name+".p99", quantile(xs, 0.99), unit)
	}
	pair("server.queue_ms", queue, "ms")
	pair("server.coalesce_ms", coalesce, "ms")
	pair("server.ack_us", ack, "us")
	pair("server.http_ms", httpMs, "ms")
	pair("online.lookup_us", lookup, "us")
	pair("online.pricing_us", pricing, "us")
	pair("journal.append_us", jrnl, "us")
	pair("journal.fsync_us", fsync, "us")
	put("server.stage_coverage.p99", quantile(sums, 0.99)/quantile(lats, 0.99), "ratio")
	put("server.epoch_size.mean", r.heavyOffers/r.heavyEpochs, "count")
	put("daemon.cpu_us_per_decision", float64(r.heavyTicks)*clockTickUs/r.heavyOffers, "us")
	put("gen.lag_ms.p99", quantile(lags, 0.99), "ms")
	put("gen.batch_size.mean", mean(batches), "count")
	put("graph.dijkstra_calls", r.dijkstra, "count")

	put("online.replay_s", v.replay.Seconds(), "s")
	put("online.replay_records", float64(v.records), "count")
	put("journal.load_s", v.load.Seconds(), "s")
	put("journal.bytes_per_decision", float64(v.walBytes)/float64(v.decisions), "B")

	// Instance construction, timed piece by piece. This mirrors
	// server.BuildInstance; the problem the gate verified against comes
	// from BuildInstance itself.
	c := r.w.instance()
	t0 := time.Now()
	top, err := topology.Generate(topology.ScaledConfig(c.Nodes, c.Seed))
	if err != nil {
		return nil, err
	}
	put("topology.generate_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	graph.NewDistanceCache(top.Graph).Matrix()
	put("graph.matrix_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	wc := workload.DefaultConfig()
	wc.Seed, wc.NumDatasets, wc.NumQueries, wc.MaxDatasetsPerQuery = c.Seed, c.Datasets, c.Queries, c.F
	wl, err := workload.Generate(wc, top)
	if err != nil {
		return nil, err
	}
	if _, err := placement.NewProblem(cluster.New(top), wl, c.K); err != nil {
		return nil, err
	}
	put("placement.instance_s", time.Since(t0).Seconds(), "s")

	t0 = time.Now()
	eng := online.NewEngine(v.p, expectedArrivals, online.Options{})
	put("online.tables_s", time.Since(t0).Seconds(), "s")

	// Offer cost on the heavy segments' arrivals, with no journal
	// attached. Each segment's due times start at zero; laid end to end
	// they keep arrival times increasing, as the engine requires.
	var admitUs, rejectUs []float64
	start := 0.0
	for _, ph := range r.heavySegs {
		for _, of := range ph.offers {
			t0 = time.Now()
			dec, err := eng.Offer(online.Arrival{Query: workload.QueryID(of.query), AtSec: start + of.due.Seconds(), HoldSec: of.hold})
			d := us(time.Since(t0))
			if err != nil {
				return nil, err
			}
			if dec.Admitted {
				admitUs = append(admitUs, d)
			} else {
				rejectUs = append(rejectUs, d)
			}
		}
		start += r.plan.seg.Seconds()
	}
	put("online.offer_admit_us.p50", median(admitUs), "us")
	put("online.offer_reject_us.p50", median(rejectUs), "us")

	syncUs, err := appendSyncSample(filepath.Join(r.dir, "append-probe"), int(v.walBytes)/v.decisions, 64)
	if err != nil {
		return nil, err
	}
	put("journal.append_sync_us.p50", median(syncUs), "us")
	return out, nil
}

// appendSyncSample times n synced journal.Append calls of a record of the
// given framed size in a fresh journal under dir.
func appendSyncSample(dir string, frameBytes, n int) ([]float64, error) {
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, max(frameBytes-8, 1))
	for i := range payload {
		payload[i] = 'x'
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := j.Append(payload); err != nil {
			_ = j.Close()
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, j.Close()
}
