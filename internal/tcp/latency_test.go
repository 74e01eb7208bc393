package tcp

import (
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/netsim"
)

// TestSingleRequestResponseLatency is a latency regression guard: one
// request/response exchange of 16 KB over the simulated Ethernet must
// complete in a handful of milliseconds of virtual time — a stray RTO or
// a lost wakeup shows up here as a 200ms+ jump.
func TestSingleRequestResponseLatency(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	var events []string
	var last time.Duration
	mark := func(s string) core.M[core.Unit] {
		return core.Do(func() {
			last = time.Duration(w.clk.Now())
			events = append(events, last.String()+" "+s)
		})
	}
	w.run(t,
		core.Seq(
			core.Then(server.ReadM(make([]byte, 64)), mark("server got request")),
			send(server, make([]byte, 16384)), // 16KB response
			mark("server wrote response"),
		),
		core.Seq(
			send(client, []byte("GET /x HTTP/1.1\r\n\r\n")),
			mark("client sent request"),
			core.Then(client.ReadFullM(make([]byte, 16384)), mark("client got response")),
		),
	)
	for _, e := range events {
		t.Log(e)
	}
	if last > 10*time.Millisecond {
		t.Fatalf("16KB request/response took %v of virtual time; a timer is stalling the exchange", last)
	}
}
