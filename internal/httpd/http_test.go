package httpd

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// parse is ParseRequestInto over a fresh Request.
func parse(head string) (*Request, error) {
	req := &Request{}
	return req, ParseRequestInto(req, head)
}

func TestParseRequestBasic(t *testing.T) {
	req, err := parse("GET /index.html HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/index.html" || req.Version != "HTTP/1.1" {
		t.Fatalf("parsed %+v", req)
	}
	if got := req.Header("host"); got != "example" {
		t.Fatalf("Host = %q", got)
	}
	if req.KeepAlive() {
		t.Fatal("Connection: close parsed as keep-alive")
	}
}

// Header scans the head it was parsed from with the semantics of the map
// it replaced: names compare case-insensitively, names and values are
// trimmed, a repeated header's last occurrence wins, absent is "".
func TestRequestHeaderLookup(t *testing.T) {
	req, err := parse("POST /x HTTP/1.1\r\nCONTENT-length : 7 \r\nX-A: 1\r\ncontent-Length: 12\r\nÄ: ä\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"content-length": "12", "x-a": "1", "ä": "ä", "host": "", "content": "",
	} {
		if got := req.Header(name); got != want {
			t.Errorf("Header(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseRequestKeepAliveDefaults(t *testing.T) {
	r11, _ := parse("GET / HTTP/1.1\r\n\r\n")
	if !r11.KeepAlive() {
		t.Fatal("HTTP/1.1 should default keep-alive")
	}
	r10, _ := parse("GET / HTTP/1.0\r\n\r\n")
	if r10.KeepAlive() {
		t.Fatal("HTTP/1.0 should default close")
	}
	r10ka, _ := parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
	if !r10ka.KeepAlive() {
		t.Fatal("HTTP/1.0 with keep-alive header should persist")
	}
}

func TestParseRequestMalformed(t *testing.T) {
	for _, head := range []string{
		"\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / NOTHTTP\r\n\r\n",
		"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
	} {
		if _, err := parse(head); !errors.Is(err, ErrMalformedRequest) {
			t.Fatalf("head %q: err = %v", head, err)
		}
	}
}

func TestHeadBufferSplitDelivery(t *testing.T) {
	hb := &HeadBuffer{}
	head, err := hb.Feed([]byte("GET / HTT"))
	if err != nil || head != "" {
		t.Fatalf("partial: %q %v", head, err)
	}
	head, err = hb.Feed([]byte("P/1.1\r\nHost: x\r\n\r\nGET /next"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(head, "GET / HTTP/1.1") {
		t.Fatalf("head %q", head)
	}
	if hb.Buffered() != len("GET /next") {
		t.Fatalf("buffered = %d", hb.Buffered())
	}
}

func TestHeadBufferPipelined(t *testing.T) {
	hb := &HeadBuffer{}
	h1, err := hb.Feed([]byte("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"))
	if err != nil || !strings.Contains(h1, "/a") {
		t.Fatalf("h1 %q %v", h1, err)
	}
	h2, err := hb.Pending()
	if err != nil || !strings.Contains(h2, "/b") {
		t.Fatalf("h2 %q %v", h2, err)
	}
}

func TestHeadBufferOverflow(t *testing.T) {
	hb := &HeadBuffer{}
	_, err := hb.Feed(make([]byte, MaxHeadBytes+8))
	if !errors.Is(err, ErrMalformedRequest) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestResponseHeadRoundTrip(t *testing.T) {
	head := string(ResponseHead(200, 16384, true))
	status, length, err := ParseResponseHead(head)
	if err != nil || status != 200 || length != 16384 {
		t.Fatalf("round trip: %d %d %v", status, length, err)
	}
	if !strings.Contains(head, "keep-alive") {
		t.Fatal("keep-alive missing")
	}
	head = string(ResponseHead(404, 0, false))
	status, _, _ = ParseResponseHead(head)
	if status != 404 || !strings.Contains(head, "close") {
		t.Fatalf("404 head %q", head)
	}
}

// Property: a head split at any byte boundary parses identically.
func TestHeadBufferSplitProperty(t *testing.T) {
	full := "GET /some/path HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n\r\n"
	check := func(cut uint8) bool {
		i := int(cut) % len(full)
		hb := &HeadBuffer{}
		h1, err := hb.Feed([]byte(full[:i]))
		if err != nil {
			return false
		}
		if h1 == "" {
			h2, err := hb.Feed([]byte(full[i:]))
			if err != nil || h2 != full {
				return false
			}
			return true
		}
		return h1 == full
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

func TestCachePutGet(t *testing.T) {
	c := NewCache(100)
	c.Put("a", []byte("hello"))
	got, ok := c.Get("a")
	if !ok || string(got) != "hello" {
		t.Fatalf("get = %q %v", got, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("phantom hit")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(10)
	c.Put("a", []byte("aaaa"))
	c.Put("b", []byte("bbbb"))
	c.Get("a")                 // a is now most recent
	c.Put("c", []byte("cccc")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestCacheOversizedObjectSkipped(t *testing.T) {
	c := NewCache(4)
	c.Put("big", []byte("toobig"))
	if len(c.entries) != 0 {
		t.Fatal("oversized object cached")
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c := NewCache(100)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("longer-v2"))
	got, _ := c.Get("k")
	if string(got) != "longer-v2" {
		t.Fatalf("got %q", got)
	}
	if c.Used() != int64(len("longer-v2")) {
		t.Fatalf("used = %d", c.Used())
	}
}

func TestCacheResizeEvicts(t *testing.T) {
	c := NewCache(100)
	for i := 0; i < 10; i++ {
		c.Put(string(rune('a'+i)), make([]byte, 10))
	}
	c.Resize(25)
	if c.Used() > 25 {
		t.Fatalf("used %d after resize", c.Used())
	}
	if len(c.entries) != 2 {
		t.Fatalf("len %d after resize to 25", len(c.entries))
	}
}

// TestCacheFillRecycles holds a miss's fill to the recycling rule: it gets
// a buffer of exactly the file's size, whatever the free list holds, and
// a fill cut short publishes only the bytes read, never what a recycled
// buffer held past them.
func TestCacheFillRecycles(t *testing.T) {
	const size = 16 << 10
	c := NewCache(1 << 20)
	read := func(key string, n int64, got int, b byte) {
		ck := newChunker(c, n, n, size)
		if int64(cap(ck.entry.data)) != n {
			t.Fatalf("a %d-byte fill got a %d-byte buffer", n, cap(ck.entry.data))
		}
		w := ck.window(0)[:got]
		for i := range w {
			w[i] = b
		}
		ck.view(0, got)
		ck.store(c, key)
	}
	read("a", size, size, 'a')
	c.Resize(0) // a goes to the free list
	c.Resize(1 << 20)
	read("zero", 0, 0, 0)
	read("small", 4096, 4096, 's')
	read("short", size, 100, 'b')
	if got, ok := c.Get("short"); !ok || len(got) != 100 || strings.Count(string(got), "b") != 100 {
		t.Fatalf("a fill cut short after 100 bytes cached %d bytes", len(got))
	}
	if c.Used() != 4096+100 {
		t.Fatalf("used = %d, want %d", c.Used(), 4096+100)
	}
}

// TestCacheConcurrentFills runs fills, Gets and Resizes from several
// goroutines at once, as the Apache baseline's threads do. Each goroutine
// holds the last few bodies Get returned, as a ring holds a lent body,
// and every byte of them must stay its file's while the others evict and
// recycle around them.
func TestCacheConcurrentFills(t *testing.T) {
	const size, keys, rounds = 4096, 16, 400
	c := NewCache(4 * size)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [4]struct {
				k int
				b []byte
			}
			for i := 0; i < rounds; i++ {
				k := (g*rounds + i) % keys
				if i%50 == 0 {
					c.Resize(int64(i%3) * 2 * size)
				}
				if got, ok := c.Get(strconv.Itoa(k)); ok {
					held[i%len(held)].k, held[i%len(held)].b = k, got
				} else {
					ck := newChunker(c, size, size, size)
					w := ck.window(0)
					for j := range w {
						w[j] = byte(k)
					}
					ck.view(0, size)
					ck.store(c, strconv.Itoa(k))
				}
				for _, h := range held {
					if n := bytes.Count(h.b, []byte{byte(h.k)}); n != len(h.b) {
						t.Errorf("%d bytes of a body Get returned for %d were overwritten", len(h.b)-n, h.k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Property: Used never exceeds capacity, and a Get right after Put hits
// (when the object fits).
func TestCacheInvariantProperty(t *testing.T) {
	check := func(ops []uint16) bool {
		c := NewCache(64)
		for _, op := range ops {
			key := string(rune('a' + op%13))
			size := int(op>>8) % 40
			if op%3 == 0 {
				c.Get(key)
			} else {
				c.Put(key, make([]byte, size))
				if int64(size) <= 64 {
					if _, ok := c.Get(key); !ok {
						return false
					}
				}
			}
			if c.Used() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
