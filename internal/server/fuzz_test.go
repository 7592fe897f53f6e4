package server

import (
	"bufio"
	"bytes"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseObjectURL throws arbitrary paths and size parameters at the
// proxy/origin URL parser. Properties: it never panics, it never accepts a
// path outside /obj/<id>, and an accepted request round-trips — rebuilding
// the URL from the parsed (id, size) reproduces the input.
func FuzzParseObjectURL(f *testing.F) {
	f.Add("/obj/7", "13")
	f.Add("/obj/18446744073709551615", "0")
	f.Add("/obj/", "10")
	f.Add("/obj/-1", "10")
	f.Add("/obj/1e3", "10")
	f.Add("/other/1", "10")
	f.Add("/obj/1", "-5")
	f.Add("/obj/1", "")
	f.Add("/obj/007", "1")
	f.Fuzz(func(t *testing.T, path, size string) {
		r := &http.Request{URL: &url.URL{Path: path, RawQuery: "size=" + url.QueryEscape(size)}}
		id, sz, err := parseObjectURL(r)
		if err != nil {
			return
		}
		if !strings.HasPrefix(path, "/obj/") {
			t.Fatalf("accepted path %q without /obj/ prefix", path)
		}
		if sz < 0 {
			t.Fatalf("accepted negative size %d from %q", sz, size)
		}
		// The id portion must parse back to the same value. (Leading zeros
		// and "+" are accepted by ParseUint, so compare values, not strings.)
		back, perr := strconv.ParseUint(path[len("/obj/"):], 10, 64)
		if perr != nil || back != id {
			t.Fatalf("parseObjectURL(%q) = id %d, but id segment reparses to (%d, %v)", path, id, back, perr)
		}
		gotSize, serr := strconv.ParseInt(size, 10, 64)
		if serr != nil || gotSize != sz {
			t.Fatalf("parseObjectURL size %d disagrees with query %q (%v)", sz, size, serr)
		}
	})
}

// FuzzUpstreamHead throws arbitrary bytes at the upstream client's response
// head parser. Properties: it never panics; an accepted head has exactly one
// framing and a final status; and it consumes the head and not a byte of what
// follows — the accepted prefix ends at its first blank line.
func FuzzUpstreamHead(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Cache: hoc-hit\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 503 Service Unavailable\nretry-after: 1\nconnection: close\n\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nX-Cache miss\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nX-Cache: hoc\r\n hit\r\nContent-Length: 5\r\n\r\nhello"))
	want := []string{"X-Cache", "Retry-After"}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, upstreamBufSize)
		h := upHead{at: make([][2]int, len(want))}
		if err := parseHead(br, want, &h); err != nil {
			return
		}
		if h.status < 200 || h.status > 999 || h.length < -1 || (h.chunked && h.length >= 0) {
			t.Fatalf("accepted head %+v", h)
		}
		head := data[:len(data)-src.Len()-br.Buffered()]
		if !bytes.HasSuffix(head, []byte("\n\n")) && !bytes.HasSuffix(head, []byte("\n\r\n")) {
			t.Fatalf("consumed %q, which does not end at a blank line", head)
		}
		lines := bytes.Split(head, []byte("\n"))
		for _, line := range lines[:len(lines)-2] { // the blank line and the empty tail after it
			if len(bytes.TrimSuffix(line, []byte("\r"))) == 0 {
				t.Fatalf("consumed %q: past the first blank line", head)
			}
		}
		for i := range want {
			if at := h.at[i]; at[0] >= 0 && (at[1] < at[0] || at[1] > len(h.vals)) {
				t.Fatalf("wanted header %d spans %v of %d value bytes", i, at, len(h.vals))
			}
		}
	})
}
