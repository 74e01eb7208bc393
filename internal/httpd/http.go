// Package httpd implements the paper's case study (§5.2): a static-file
// web server written in monadic threads over asynchronous I/O with an
// application-level cache, plus the Apache-stand-in baseline — a
// thread-per-connection blocking server on the NPTL runtime — used for
// the Figure 19 comparison.
//
// The HTTP surface is a small, self-contained HTTP/1.0-1.1 subset (GET,
// persistent connections, Content-Length framing): enough to drive the
// paper's workload, written from scratch so the whole stack remains
// application-level.
package httpd

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Request is a parsed HTTP request. It owns no storage of its own: every
// field is a substring of the head it was parsed from.
type Request struct {
	Method  string
	Path    string
	Version string
	headers string // the header lines after the request line, validated by the parser
}

// Header reports the value of the header whose name lowercases to lower,
// or "" when absent. It scans the header lines (the server consults two
// headers per request, so a map would cost more to fill than to skip);
// the last occurrence wins.
func (r *Request) Header(lower string) string {
	v := ""
	for rest := r.headers; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		if i := strings.IndexByte(line, ':'); i >= 0 && tokenIs(strings.TrimSpace(line[:i]), lower) {
			v = strings.TrimSpace(line[i+1:])
		}
	}
	return v
}

// KeepAlive reports whether the connection should persist after the
// response (HTTP/1.1 default yes; HTTP/1.0 requires the header).
func (r *Request) KeepAlive() bool {
	c := r.Header("connection")
	switch r.Version {
	case "HTTP/1.1":
		return !tokenIs(c, "close")
	default:
		return tokenIs(c, "keep-alive")
	}
}

// tokenIs reports strings.ToLower(v) == lower without allocating on the
// all-ASCII path. lower must be lowercase ASCII.
func tokenIs(v, lower string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] >= 0x80 {
			// Unicode case mapping can change byte counts; defer to the
			// library for exact ToLower semantics.
			return strings.ToLower(v) == lower
		}
	}
	if len(v) != len(lower) {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// ErrMalformedRequest reports an unparsable request head.
var ErrMalformedRequest = errors.New("httpd: malformed request")

// ParseRequestInto parses a request head (everything through the blank
// line, CRLF-delimited) into req. It scans in place and allocates nothing:
// req's fields alias head. Every header line is checked for its colon
// here, so Header never meets a malformed one. On error req's fields are
// unspecified.
func ParseRequestInto(req *Request, head string) error {
	s := strings.TrimSuffix(head, "\r\n")

	// Request line: exactly three space-separated fields (so exactly two
	// spaces — consecutive spaces would make an empty fourth field) with
	// an HTTP version marker.
	line, rest := nextLine(s)
	i1 := strings.IndexByte(line, ' ')
	var i2 int
	if i1 >= 0 {
		i2 = strings.IndexByte(line[i1+1:], ' ')
	}
	if i1 < 0 || i2 < 0 {
		return fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	version := line[i1+1+i2+1:]
	if strings.IndexByte(version, ' ') >= 0 || !strings.HasPrefix(version, "HTTP/") {
		return fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	req.Method = line[:i1]
	req.Path = line[i1+1 : i1+1+i2]
	req.Version = version
	req.headers = rest
	for rest != "" {
		line, rest = nextLine(rest)
		if line != "" && strings.IndexByte(line, ':') < 0 {
			return fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
	}
	return nil
}

// nextLine splits s at the first CRLF; rest is empty on the last line.
func nextLine(s string) (line, rest string) {
	if i := strings.Index(s, "\r\n"); i >= 0 {
		return s[:i], s[i+2:]
	}
	return s, ""
}

// HeadBuffer accumulates bytes until a full request head is available.
// It keeps any bytes past the blank line for the next request on a
// persistent connection.
type HeadBuffer struct {
	buf []byte
}

// MaxHeadBytes bounds a request head; longer heads are malformed.
const MaxHeadBytes = 16 * 1024

// Feed appends stream bytes; it returns a complete head (including the
// terminating blank line) when available, or "" to request more input.
func (h *HeadBuffer) Feed(p []byte) (head string, err error) {
	h.buf = append(h.buf, p...)
	return h.take()
}

// Pending attempts to extract a head from already-buffered bytes (for
// pipelined requests).
func (h *HeadBuffer) Pending() (head string, err error) { return h.take() }

// Buffered reports how many bytes beyond the last extracted head are
// buffered (the start of a response body, for clients).
func (h *HeadBuffer) Buffered() int { return len(h.buf) }

// Reset discards buffered bytes.
func (h *HeadBuffer) Reset() { h.buf = h.buf[:0] }

// Discard drops up to n buffered bytes (a request body that rode in with
// its head), returning how many were dropped.
func (h *HeadBuffer) Discard(n int) int {
	if n > len(h.buf) {
		n = len(h.buf)
	}
	h.buf = append(h.buf[:0], h.buf[n:]...)
	return n
}

// pushBack appends stream bytes without attempting head extraction (the
// body drain uses it for pipelined bytes past a request body; the next
// Pending call extracts).
func (h *HeadBuffer) pushBack(p []byte) { h.buf = append(h.buf, p...) }

func (h *HeadBuffer) take() (string, error) {
	if i := indexCRLFCRLF(h.buf); i >= 0 {
		// Reject overlong heads even when the terminator is in the same
		// chunk, so the verdict does not depend on how the stream was
		// chunked (a feed of one big buffer vs. byte-by-byte reads).
		if i+4 > MaxHeadBytes {
			return "", fmt.Errorf("%w: head exceeds %d bytes", ErrMalformedRequest, MaxHeadBytes)
		}
		head := string(h.buf[:i+4])
		rest := h.buf[i+4:]
		h.buf = append(h.buf[:0], rest...)
		return head, nil
	}
	if len(h.buf) >= MaxHeadBytes {
		return "", fmt.Errorf("%w: head exceeds %d bytes", ErrMalformedRequest, MaxHeadBytes)
	}
	return "", nil
}

func indexCRLFCRLF(b []byte) int {
	for i := 0; i+3 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i
		}
	}
	return -1
}

// statusText is the subset of reason phrases the server emits.
var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	500: "Internal Server Error",
	503: "Service Unavailable",
}

// ResponseHead renders a response status line and headers for a body of
// the given length. Rendered heads are memoized — a static-file workload
// cycles through a handful of (status, length, keep-alive) triples — so
// the hot path returns a shared slice that callers must treat as
// read-only (every caller writes it to a transport, which never mutates).
func ResponseHead(status int, contentLength int64, keepAlive bool) []byte {
	if status >= 0 && status < 1000 && contentLength >= 0 && contentLength < 1<<52 {
		key := int64(status)<<53 | contentLength
		if keepAlive {
			key |= 1 << 52
		}
		respHeads.mu.RLock()
		h, ok := respHeads.m[key]
		respHeads.mu.RUnlock()
		if ok {
			return h
		}
		h = renderResponseHead(status, contentLength, keepAlive)
		respHeads.mu.Lock()
		if respHeads.m == nil {
			respHeads.m = make(map[int64][]byte)
		}
		// Bound the memo so adversarial length diversity cannot grow it
		// without limit; misses past the cap just render each time.
		if len(respHeads.m) < 4096 {
			respHeads.m[key] = h
		}
		respHeads.mu.Unlock()
		return h
	}
	return renderResponseHead(status, contentLength, keepAlive)
}

var respHeads struct {
	mu sync.RWMutex
	m  map[int64][]byte
}

func renderResponseHead(status int, contentLength int64, keepAlive bool) []byte {
	reason := statusText[status]
	if reason == "" {
		reason = "Unknown"
	}
	conn := "close"
	if keepAlive {
		conn = "keep-alive"
	}
	return []byte("HTTP/1.1 " + strconv.Itoa(status) + " " + reason +
		"\r\nServer: hybrid/1.0" +
		"\r\nContent-Type: application/octet-stream" +
		"\r\nContent-Length: " + strconv.FormatInt(contentLength, 10) +
		"\r\nConnection: " + conn +
		"\r\n\r\n")
}

// ParseResponseHead parses a response head and returns the status code
// and content length (-1 when the head has none; used by the load
// generator). It scans the head in place and allocates nothing unless it
// fails.
func ParseResponseHead(head string) (status int, contentLength int64, err error) {
	line, rest, more := strings.Cut(strings.TrimSuffix(head, "\r\n"), "\r\n")
	proto, fields, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return 0, 0, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	code, _, _ := strings.Cut(fields, " ")
	status, err = strconv.Atoi(code)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: status %q", ErrMalformedRequest, code)
	}
	contentLength = -1
	for more {
		line, rest, more = strings.Cut(rest, "\r\n")
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.EqualFold(strings.TrimSpace(name), "Content-Length") {
			contentLength, err = strconv.ParseInt(strings.TrimSpace(value), 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("%w: content-length", ErrMalformedRequest)
			}
		}
	}
	return status, contentLength, nil
}
