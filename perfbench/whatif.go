package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedd"
)

// What-ifs are sent in blocks, each a fixed run of consecutive
// candidates, by a closed loop: each client sends its next GET /whatif
// only after the previous answer arrived, so a slow server receives
// less load. The blocks take turns with the replays until the measured
// time is up, and every block is sent at least minRounds times.
const (
	queryClients  = 2    // callers waiting for answers; also the connection cap
	forkSlots     = 2    // schedd fork pool size, per served state
	blockQueries  = 50   // candidates per block
	minRounds     = 3    // times every candidate is asked at least
	minCandidates = 1000 // p99 over candidates then keeps 10 of them beyond it
	// blocksPerKernel is how many blocks are sent between two runs of
	// the calibration kernel.
	blocksPerKernel = 10
	reqIDHeader     = "X-Perfbench-Req"
)

// server is a schedd handler served over loopback HTTP.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{} // closed when Serve returned
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for its goroutine to end.
func (s *server) close() {
	_ = s.srv.Close() // no request is in flight; nothing to report
	<-s.done
}

// answer is one client-side what-if exchange.
type answer struct {
	id     int64
	cand   int // index into the request paths
	t0, t1 time.Time
	pred   schedd.WhatIf
	err    error
}

func (a answer) latency() time.Duration { return a.t1.Sub(a.t0) }

// closedLoop sends a GET to every one of paths once, from `clients`
// closed-loop callers taking the paths in order. Request ids run from
// firstID+1; answers come back in request-id order, and an answer's
// cand is its index into paths.
func closedLoop(client *http.Client, base string, paths []string, clients int, firstID int64) []answer {
	var next atomic.Int64
	out := make([]answer, len(paths))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cand := int(next.Add(1) - 1)
				if cand >= len(paths) {
					return
				}
				id := firstID + int64(cand) + 1
				a := answer{id: id, cand: cand, t0: time.Now()}
				a.pred, a.err = whatIf(client, base+paths[cand], id)
				a.t1 = time.Now()
				out[cand] = a
			}
		}()
	}
	wg.Wait()
	return out
}

// whatIf sends one GET /whatif and decodes a 200 answer.
func whatIf(client *http.Client, url string, id int64) (schedd.WhatIf, error) {
	var pred schedd.WhatIf
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return pred, err
	}
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	resp, err := client.Do(req)
	if err != nil {
		return pred, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		return pred, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		return pred, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return pred, nil
}

func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: queryClients, MaxIdleConnsPerHost: queryClients}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr
}

// checkAnswer verifies one what-if: it must have been answered (200),
// about the asked job, forked at the serving state's instant, with a
// start no earlier than the fork and a non-negative wait, and it must
// agree with the uninterrupted replay: a fork decides exactly as the
// replay did, so the candidate starts when the replay started it.
// Under node faults the replay records a requeued job's last start
// while the what-if reports its first, so there the answer may only be
// earlier (exact is false).
func checkAnswer(a answer, name string, forkAt, replayStart float64, exact bool) error {
	if a.err != nil {
		return a.err
	}
	p := a.pred
	switch {
	case p.Job != name:
		return fmt.Errorf("asked about %s, answered about %s", name, p.Job)
	case p.ForkedAt != forkAt:
		return fmt.Errorf("whatif %s forked at %g, serving state is at %g", name, p.ForkedAt, forkAt)
	case p.Start < p.ForkedAt:
		return fmt.Errorf("whatif %s starts at %g before its fork at %g", name, p.Start, p.ForkedAt)
	case p.Wait < 0:
		return fmt.Errorf("whatif %s has negative wait %g", name, p.Wait)
	case p.Start > replayStart || (exact && p.Start != replayStart):
		return fmt.Errorf("whatif %s starts at %g, the replay started it at %g", name, p.Start, replayStart)
	}
	return nil
}

// handlerTimer wraps the schedd handler and records one server-side
// span per request, keyed by the client's request id.
type handlerTimer struct {
	h     http.Handler
	mu    sync.Mutex
	spans []span
	base  time.Time
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t1 := time.Now()
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // 0 marks a request without an id
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: "schedd.handler", Req: id, Start: t0.Sub(t.base).Nanoseconds(), End: t1.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
}
