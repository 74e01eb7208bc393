package httpd

import (
	"strings"
	"testing"
)

// Allocation pins for the per-request parsing hot path. Bounds are the
// measured cost with a little headroom — they exist to catch a change
// that quietly reintroduces per-request garbage (the first parser
// allocated a line slice, a field slice, and two lowered strings per
// header; the second a header map), not to lock in exact runtime
// internals.

const parseReq = "GET /file-123 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

func TestParseRequestAllocs(t *testing.T) {
	// Nothing: every field of the Request is a substring of head.
	var req Request
	n := testing.AllocsPerRun(500, func() {
		if err := ParseRequestInto(&req, parseReq); err != nil || req.Header("host") != "bench" {
			t.Fatal("parse failed")
		}
	})
	if n != 0 {
		t.Fatalf("ParseRequestInto allocates %v per run, want 0", n)
	}
}

func TestParseResponseHeadAllocs(t *testing.T) {
	// Nothing: the head is scanned in place (the load generator parses one
	// per request).
	const head = "HTTP/1.1 200 OK\r\nServer: hybrid/1.0\r\nContent-Length: 16384\r\nConnection: keep-alive\r\n\r\n"
	n := testing.AllocsPerRun(500, func() {
		if st, cl, err := ParseResponseHead(head); err != nil || st != 200 || cl != 16384 {
			t.Fatal("parse failed")
		}
	})
	if n != 0 {
		t.Fatalf("ParseResponseHead allocates %v per run, want 0", n)
	}
}

func TestKeepAliveAllocs(t *testing.T) {
	req, err := parse(parseReq)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if !req.KeepAlive() {
			t.Fatal("want keep-alive")
		}
	}); n != 0 {
		t.Fatalf("KeepAlive allocates %v per run, want 0", n)
	}
}

func TestResponseHeadMemoAllocs(t *testing.T) {
	// First render populates the memo; every later request for the same
	// (status, length, keep) triple must return the shared head.
	warm := ResponseHead(200, 16384, true)
	if n := testing.AllocsPerRun(500, func() {
		h := ResponseHead(200, 16384, true)
		if len(h) != len(warm) {
			t.Fatal("head changed")
		}
	}); n != 0 {
		t.Fatalf("memoized ResponseHead allocates %v per run, want 0", n)
	}
	// Out-of-range keys bypass the memo but still render correctly.
	if h := ResponseHead(200, 1<<53, true); !strings.Contains(string(h), "Content-Length: 9007199254740992") {
		t.Fatalf("unmemoized head wrong: %q", h)
	}
}

func TestHeadBufferSteadyStateAllocs(t *testing.T) {
	// A persistent connection reusing one HeadBuffer reaches a steady
	// state where feeding a head allocates only the head string itself
	// (returned to the caller) — the accumulation buffer stops growing.
	hb := &HeadBuffer{}
	raw := []byte(parseReq)
	for i := 0; i < 4; i++ { // reach capacity steady state
		if _, err := hb.Feed(raw); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 1
	n := testing.AllocsPerRun(500, func() {
		head, err := hb.Feed(raw)
		if err != nil || head == "" {
			t.Fatal("no head")
		}
	})
	if n > maxAllocs {
		t.Fatalf("steady-state Feed allocates %v per run, want <= %d", n, maxAllocs)
	}
}
