package httpd_test

import (
	"strconv"
	"strings"
	"testing"

	"hybrid/internal/httpd"
)

// FuzzParseRequest throws arbitrary request heads at the parser: it must
// never panic, and an accepted head must satisfy the parser's own
// contract: a three-part request line, an HTTP/ version, and header
// lookup that agrees with a map filled line by line (lowercased trimmed
// names, trimmed values, last occurrence wins).
func FuzzParseRequest(f *testing.F) {
	f.Add("GET / HTTP/1.1\r\n\r\n")
	f.Add("GET /file-0 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")
	f.Add("HEAD /x HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n")
	f.Add("POST /upload HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
	f.Add("NONSENSE\r\n\r\n")
	f.Add("GET  /two-spaces HTTP/1.1\r\n\r\n")
	f.Add("GET /x HTTP/1.1\r\nBad Header\r\n\r\n")
	f.Add("GET /x HTTP/1.1\r\n: empty-key\r\n\r\n")
	f.Add("\r\n\r\n")
	f.Fuzz(func(t *testing.T, head string) {
		var req httpd.Request
		if err := httpd.ParseRequestInto(&req, head); err != nil {
			return
		}
		if !strings.HasPrefix(req.Version, "HTTP/") {
			t.Fatalf("accepted version %q", req.Version)
		}
		model := map[string]string{}
		lines := strings.Split(strings.TrimSuffix(head, "\r\n"), "\r\n")
		for _, line := range lines[1:] {
			if name, value, ok := strings.Cut(line, ":"); ok {
				model[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
			} else if line != "" {
				t.Fatalf("accepted header line %q without a colon", line)
			}
		}
		for name, want := range model {
			if got := req.Header(name); got != want {
				t.Fatalf("Header(%q) = %q, map model says %q", name, got, want)
			}
		}
		if _, present := model["x-absent"]; !present && req.Header("x-absent") != "" {
			t.Fatalf("absent header = %q", req.Header("x-absent"))
		}
		// KeepAlive must be total on any accepted request.
		_ = req.KeepAlive()
	})
}

// FuzzHeadBuffer feeds the same stream in two different chunkings: the
// extracted heads must be identical, heads must end with the blank line,
// and buffered counts must stay consistent. This is the invariant the
// server's readHead loop relies on for pipelined requests. A head is a
// view of the buffer that the next Feed may overwrite, so the harness,
// which keeps every head to the end, keeps clones, as any caller that
// keeps a head must.
func FuzzHeadBuffer(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), 3)
	f.Add([]byte("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"), 7)
	f.Add([]byte("GET /a HTTP/1.1\r\nHost: x\r\n\r\ntrailing-body-bytes"), 1)
	f.Add([]byte("\r\n\r\n\r\n\r\n"), 2)
	f.Add([]byte(strings.Repeat("A", httpd.MaxHeadBytes+8)), 1024)
	f.Fuzz(func(t *testing.T, stream []byte, chunk int) {
		if chunk < 1 {
			chunk = 1
		}
		collect := func(feedAll bool) ([]string, error) {
			hb := &httpd.HeadBuffer{}
			var heads []string
			drainPending := func() error {
				for {
					head, err := hb.Pending()
					if err != nil {
						return err
					}
					if head == "" {
						return nil
					}
					heads = append(heads, strings.Clone(head))
				}
			}
			feedOne := func(p []byte) error {
				head, err := hb.Feed(p)
				if err != nil {
					return err
				}
				if head != "" {
					heads = append(heads, strings.Clone(head))
				}
				return drainPending()
			}
			if feedAll {
				if err := feedOne(stream); err != nil {
					return heads, err
				}
				return heads, nil
			}
			for off := 0; off < len(stream); off += chunk {
				end := off + chunk
				if end > len(stream) {
					end = len(stream)
				}
				if err := feedOne(stream[off:end]); err != nil {
					return heads, err
				}
			}
			return heads, nil
		}

		whole, errW := collect(true)
		parts, errP := collect(false)
		if (errW == nil) != (errP == nil) {
			t.Fatalf("chunking changed the verdict: whole=%v chunked=%v", errW, errP)
		}
		if errW != nil {
			return // both overflowed; nothing more to check
		}
		if len(whole) != len(parts) {
			t.Fatalf("chunking changed head count: %d vs %d", len(whole), len(parts))
		}
		for i := range whole {
			if whole[i] != parts[i] {
				t.Fatalf("head %d differs:\nwhole:   %q\nchunked: %q", i, whole[i], parts[i])
			}
			if !strings.HasSuffix(whole[i], "\r\n\r\n") {
				t.Fatalf("head %d missing terminator: %q", i, whole[i])
			}
		}
	})
}

// FuzzParseResponseHead: the response-head parser (the client half) must
// never panic, must keep the content length within what the head says,
// and must agree — status, length, and whether it fails — with
// splitResponseHead, the line-splitting spelling it replaced.
func FuzzParseResponseHead(f *testing.F) {
	f.Add("HTTP/1.1 200 OK\r\nContent-Length: 16384\r\n\r\n")
	f.Add("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 24\r\nConnection: close\r\n\r\n")
	f.Add("HTTP/1.1 404\r\n\r\n")
	f.Add("HTTP/1.1 abc Bad\r\n\r\n")
	f.Add("junk\r\n\r\n")
	f.Add("HTTP/1.0 200 OK\r\ncontent-length : 7\r\nX: y\r\nContent-Length: 9\r\n")
	f.Add("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n")
	f.Fuzz(func(t *testing.T, head string) {
		status, length, err := httpd.ParseResponseHead(head)
		ws, wl, werr := splitResponseHead(head)
		if (err != nil) != (werr != nil) || status != ws || length != wl {
			t.Fatalf("ParseResponseHead(%q) = %d, %d, %v; splitting spelling %d, %d, %v",
				head, status, length, err, ws, wl, werr)
		}
		if err == nil && length < -1 {
			t.Fatalf("content-length %d below the no-header sentinel", length)
		}
	})
}

// splitResponseHead is ParseResponseHead as first written, splitting the
// head into a slice of lines and the status line into fields: the oracle
// for the scanning spelling.
func splitResponseHead(head string) (status int, contentLength int64, err error) {
	lines := strings.Split(strings.TrimSuffix(head, "\r\n"), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return 0, 0, httpd.ErrMalformedRequest
	}
	status, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, httpd.ErrMalformedRequest
	}
	contentLength = -1
	for _, l := range lines[1:] {
		i := strings.IndexByte(l, ':')
		if i < 0 {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(l[:i]), "Content-Length") {
			contentLength, err = strconv.ParseInt(strings.TrimSpace(l[i+1:]), 10, 64)
			if err != nil {
				return 0, 0, httpd.ErrMalformedRequest
			}
		}
	}
	return status, contentLength, nil
}
