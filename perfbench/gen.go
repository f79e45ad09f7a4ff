package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgerep/internal/server"
)

// Generator limits. Two keep-alive connections is what a small client
// fleet behind one proxy holds open; 64 offers bounds one coalesced
// request so a long stall cannot turn into one unbounded body.
const (
	maxConns  = 2
	maxBatch  = 64
	reqTimout = 30 * time.Second
)

// offer is one scheduled arrival: when it is due (offset from the phase
// start), which query it offers, and how long an admission holds.
type offer struct {
	due   time.Duration
	query int
	hold  float64
}

// newRand is the benchmark's one source of randomness: every arrival
// stream is drawn from it, so a seed fixes the inputs.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// schedule draws a Poisson arrival stream of the given rate over dur:
// exponential gaps, queries uniform over the instance, exponential holds.
// The stream is a pure function of the rng state.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, queries int, holdMean float64) []offer {
	var out []offer
	for t := 0.0; ; {
		o := nextOffer(rng, &t, rate, queries, holdMean)
		if o.due >= dur {
			return out
		}
		out = append(out, o)
	}
}

// scheduleN draws exactly n arrivals at the given rate.
func scheduleN(rng *rand.Rand, rate float64, n, queries int, holdMean float64) []offer {
	out := make([]offer, n)
	t := 0.0
	for i := range out {
		out[i] = nextOffer(rng, &t, rate, queries, holdMean)
	}
	return out
}

// nextOffer advances *t (seconds) by one exponential gap and draws the
// offer due then.
func nextOffer(rng *rand.Rand, t *float64, rate float64, queries int, holdMean float64) offer {
	*t += rng.ExpFloat64() / rate
	return offer{due: time.Duration(*t * float64(time.Second)), query: rng.Intn(queries), hold: rng.ExpFloat64() * holdMean}
}

// outcome is what one offer got back. lat is measured from the offer's
// intended send time, so time spent waiting for a free connection (or
// behind a stalled server) counts against the offer that waited.
type outcome struct {
	ok   bool
	err  string
	lat  time.Duration
	send time.Duration // request round trip, send to last byte read
	resp server.AdmitResponse
}

// phase is one open-loop run of a schedule.
type phase struct {
	offers   []offer
	out      []outcome
	batches  []int           // offers per request, in send order
	lags     []time.Duration // generator lateness per request
	wall     time.Duration   // phase start to last response
	inFlight int             // most requests seen outstanding at once
}

// generator drives one base URL over at most maxConns keep-alive
// connections. dials counts TCP connections opened over its lifetime.
type generator struct {
	base   string
	client *http.Client
	dials  atomic.Int64
}

func newGenerator(base string) *generator {
	g := &generator{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	g.client = &http.Client{Transport: tr, Timeout: reqTimout}
	return g
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// run sends the schedule open-loop. Each of maxConns workers loops: if
// nothing is due it sleeps until the next due time; otherwise it takes
// every offer already due (up to maxBatch) and sends them as one request.
// A single due offer goes out as a JSON object, several as an array.
func (g *generator) run(offers []offer) *phase {
	ph := &phase{offers: offers, out: make([]outcome, len(offers))}
	var mu sync.Mutex
	next := 0
	var inFlight int
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for {
				mu.Lock()
				if next == len(offers) {
					mu.Unlock()
					return
				}
				now := time.Since(start)
				if d := offers[next].due - now; d > 0 {
					mu.Unlock()
					time.Sleep(d)
					continue
				}
				lo := next
				for next < len(offers) && next-lo < maxBatch && offers[next].due <= now {
					next++
				}
				hi := next
				inFlight++
				if inFlight > ph.inFlight {
					ph.inFlight = inFlight
				}
				ready := offers[lo].due
				if free > ready {
					ready = free
				}
				ph.batches = append(ph.batches, hi-lo)
				ph.lags = append(ph.lags, now-ready)
				mu.Unlock()

				g.send(start, offers[lo:hi], ph.out[lo:hi])

				mu.Lock()
				inFlight--
				mu.Unlock()
				free = time.Since(start)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// send posts one request for offers and fills out (same length). A
// transport error, a non-200 status, or a malformed or short response
// fails every offer in the request. Whether each decision is right is the
// correctness gate's job (check.go).
func (g *generator) send(start time.Time, offers []offer, out []outcome) {
	body := encodeOffers(offers)
	t0 := time.Since(start)
	resps, err := g.post(body, len(offers))
	done := time.Since(start)
	for i := range out {
		out[i].lat = done - offers[i].due
		out[i].send = done - t0
	}
	if err != nil {
		for i := range out {
			out[i].err = err.Error()
		}
		return
	}
	for i := range out {
		out[i].ok = true
		out[i].resp = resps[i]
	}
}

func (g *generator) post(body []byte, n int) ([]server.AdmitResponse, error) {
	resp, err := g.client.Post(g.base+"/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("read /admit response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/admit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if n == 1 {
		var one server.AdmitResponse
		if err := json.Unmarshal(data, &one); err != nil {
			return nil, fmt.Errorf("decode /admit response: %w", err)
		}
		return []server.AdmitResponse{one}, nil
	}
	var many []server.AdmitResponse
	if err := json.Unmarshal(data, &many); err != nil {
		return nil, fmt.Errorf("decode /admit response: %w", err)
	}
	if len(many) != n {
		return nil, fmt.Errorf("/admit answered %d of %d offers", len(many), n)
	}
	return many, nil
}

// encodeOffers renders offers as the /admit body: an object for one, an
// array for several. No AtSec is sent; the daemon stamps arrival time.
func encodeOffers(offers []offer) []byte {
	b := make([]byte, 0, 40*len(offers)+2)
	if len(offers) > 1 {
		b = append(b, '[')
	}
	for i, o := range offers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":`...)
		b = strconv.AppendInt(b, int64(o.query), 10)
		b = append(b, `,"hold_sec":`...)
		b = strconv.AppendFloat(b, o.hold, 'g', -1, 64)
		b = append(b, '}')
	}
	if len(offers) > 1 {
		b = append(b, ']')
	}
	return b
}
