package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedd"
)

func TestClosedLoopNeverExceedsTwoInFlight(t *testing.T) {
	var inflight, peak, served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		served.Add(1)
		time.Sleep(200 * time.Microsecond) // let requests overlap if the loop allowed it
		_ = json.NewEncoder(w).Encode(schedd.WhatIf{Job: r.URL.Query().Get("job")})
	}))
	defer srv.Close()
	client, tr := newClient()
	defer tr.CloseIdleConnections()

	var paths []string
	for i := 0; i < 300; i++ {
		paths = append(paths, fmt.Sprintf("/whatif?job=j%d", i))
	}
	answers := closedLoop(client, srv.URL, paths, queryClients, 1000)
	if got := peak.Load(); got > queryClients || got < 1 {
		t.Errorf("peak in-flight requests %d, want 1..%d", got, queryClients)
	}
	if len(answers) != len(paths) || int64(len(answers)) != served.Load() {
		t.Fatalf("%d answers, %d served, want %d", len(answers), served.Load(), len(paths))
	}
	for i, a := range answers {
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.id != int64(1001+i) || a.cand != i {
			t.Fatalf("answer %d has id %d, candidate %d; ids must run 1001..1300 in order", i, a.id, a.cand)
		}
		if want := paths[a.cand]; "/whatif?job="+a.pred.Job != want {
			t.Fatalf("answer %d about %s, asked %s", i, a.pred.Job, want)
		}
	}
}
