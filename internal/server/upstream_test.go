package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/faults"
)

// rawBackend is a scripted backend on a raw listener: no net/http between the
// test and the bytes the upstream client has to frame. serve runs once per
// accepted connection, with that connection's index; connections still open
// when the test ends (a script parked in a read) are closed under it.
type rawBackend struct {
	url   string
	conns atomic.Int32
}

func newRawBackend(t *testing.T, serve func(c net.Conn, index int)) *rawBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &rawBackend{url: "http://" + ln.Addr().String()}
	var (
		scripts  sync.WaitGroup
		accepted []net.Conn // the accept loop's until it returns, then cleanup's
		stopped  = make(chan struct{})
	)
	go func() {
		defer close(stopped)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted = append(accepted, c)
			index := int(b.conns.Add(1)) - 1
			scripts.Add(1)
			go func() {
				defer scripts.Done()
				defer c.Close()
				serve(c, index)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-stopped
		for _, c := range accepted {
			c.Close()
		}
		scripts.Wait()
	})
	return b
}

// readRequest consumes one request head from c and reports whether one came.
func readRequest(r *bufio.Reader) bool {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return false
		}
		if line == "\r\n" {
			return true
		}
	}
}

// answerEach serves every request on every connection with the same bytes,
// closing after the first answer when closeAfter is set.
func answerEach(response string, closeAfter bool) func(net.Conn, int) {
	return func(c net.Conn, _ int) {
		r := bufio.NewReader(c)
		for readRequest(r) {
			if _, err := io.WriteString(c, response); err != nil || closeAfter {
				return
			}
		}
	}
}

// fetch runs one exchange to the end of its body.
func fetch(u *upstream) (n int64, err error) {
	c, err := u.get(context.Background(), 7, 5)
	if err != nil {
		return 0, err
	}
	defer c.release()
	return c.discard()
}

// TestUpstreamConformance drives the client against scripted answers: what it
// must frame, what it must refuse, and when a connection may carry a second
// request. Every case makes two exchanges, the first consumed the relay's way
// (writeTo) and the second the validating way (discard); conns is how many
// connections the backend must have accepted by the end.
func TestUpstreamConformance(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\n"
	cases := []struct {
		name     string
		response string
		close    bool // the backend closes after each answer
		headErr  error
		body     string
		bodyErr  error
		conns    int32
	}{
		{name: "content-length", response: ok + "Content-Length: 5\r\n\r\nhello", body: "hello", conns: 1},
		{name: "chunked", response: ok + "Transfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\n\r\n", body: "hello", conns: 2},
		{name: "close-delimited", response: ok + "\r\nhello", close: true, body: "hello", conns: 2},
		{name: "http/1.0", response: "HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello", close: true, body: "hello", conns: 2},
		{name: "connection-close", response: ok + "Content-Length: 5\r\nConnection: Close\r\n\r\nhello", close: true, body: "hello", conns: 2},
		{name: "connection-token-list", response: ok + "Content-Length: 5\r\nConnection: foo, close\r\n\r\nhello", close: true, body: "hello", conns: 2},
		{name: "lower-case-names", response: "HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nhello", body: "hello", conns: 1},
		{name: "bare-lf", response: "HTTP/1.1 200 OK\nContent-Length: 5\n\nhello", body: "hello", conns: 1},
		{name: "no-reason-phrase", response: "HTTP/1.1 200\r\nContent-Length: 5\r\n\r\nhello", body: "hello", conns: 1},
		{name: "no-content", response: "HTTP/1.1 204 No Content\r\n\r\n", conns: 1},
		{name: "duplicate-length-agreeing", response: ok + "Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello", body: "hello", conns: 1},
		{name: "oversized-head", response: ok + "X-Pad: " + strings.Repeat("a", upstreamBufSize) + "\r\n\r\n", headErr: errHeadTooLarge, conns: 2},
		{name: "oversized-head-many-lines", response: ok + strings.Repeat("X-Pad: "+strings.Repeat("a", 100)+"\r\n", 100) + "\r\n", headErr: errHeadTooLarge, conns: 2},
		{name: "bad-status-line", response: "HTTP/2 200 OK\r\nContent-Length: 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "bad-status-code", response: "HTTP/1.1 2x0 OK\r\nContent-Length: 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "interim-response", response: "HTTP/1.1 100 Continue\r\n\r\n" + ok + "Content-Length: 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "negative-length", response: ok + "Content-Length: -5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "non-numeric-length", response: ok + "Content-Length: five\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "length-list", response: ok + "Content-Length: 5, 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "overflowing-length", response: ok + "Content-Length: 99999999999999999999\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "duplicate-length-conflicting", response: ok + "Content-Length: 5\r\nContent-Length: 6\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "length-and-chunked", response: ok + "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", headErr: errBadHead, conns: 2},
		{name: "unknown-transfer-coding", response: ok + "Transfer-Encoding: gzip, chunked\r\n\r\n", headErr: errBadHead, conns: 2},
		{name: "folded-header", response: ok + "X-A: b\r\n c\r\nContent-Length: 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "header-without-colon", response: ok + "Content-Length 5\r\n\r\nhello", headErr: errBadHead, conns: 2},
		{name: "short-body", response: ok + "Content-Length: 10\r\n\r\nhello", close: true, body: "hello", bodyErr: io.ErrUnexpectedEOF, conns: 2},
		{name: "bad-chunk-size", response: ok + "Transfer-Encoding: chunked\r\n\r\nzz\r\nhello", close: true, bodyErr: errors.New("invalid byte in chunk length"), conns: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newRawBackend(t, answerEach(tc.response, tc.close))
			u := newUpstream(b.url)
			for _, consume := range []string{"writeTo", "discard"} {
				c, err := u.get(context.Background(), 7, 5)
				if err != tc.headErr {
					t.Fatalf("%s: get returned %v, want %v", consume, err, tc.headErr)
				}
				if err != nil {
					continue
				}
				if c.head.status/100 != 2 {
					t.Fatalf("%s: status %d", consume, c.head.status)
				}
				if consume == "writeTo" {
					var buf bytes.Buffer
					c.writeTo(&buf)
					if buf.String() != tc.body {
						t.Fatalf("writeTo: body %q, want %q", buf.String(), tc.body)
					}
				} else {
					n, err := c.discard()
					if n != int64(len(tc.body)) || (err == nil) != (tc.bodyErr == nil) || (err != nil && err.Error() != tc.bodyErr.Error()) {
						t.Fatalf("discard = %d, %v; want %d, %v", n, err, len(tc.body), tc.bodyErr)
					}
				}
				c.release()
			}
			if got := b.conns.Load(); got != tc.conns {
				t.Fatalf("backend accepted %d connections over two exchanges, want %d", got, tc.conns)
			}
		})
	}
}

// TestUpstreamRequestAndWantedHeaders pins the bytes sent (request line with
// the base's path prefix, Host, the caller's extra headers) and the wanted
// response headers, matched whatever their case.
func TestUpstreamRequestAndWantedHeaders(t *testing.T) {
	got := make(chan string, 1)
	b := newRawBackend(t, func(c net.Conn, _ int) {
		var req strings.Builder
		r := bufio.NewReader(c)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			req.WriteString(line)
			if line == "\r\n" {
				break
			}
		}
		got <- req.String()
		_, _ = io.WriteString(c, "HTTP/1.1 404 Not Found\r\nx-darwin-gossip:  abc \r\nWARNING:\r\nContent-Length: 0\r\n\r\n")
	})
	u := newUpstream(b.url+"/base", GossipHeader, "Warning", "Retry-After")
	c, err := u.get(context.Background(), 18446744073709551615, 48000, PeerHopHeader, "1", GossipHeader, "Zm9v")
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	host := strings.TrimPrefix(b.url, "http://")
	want := "GET /base/obj/18446744073709551615?size=48000 HTTP/1.1\r\nHost: " + host +
		"\r\nX-Darwin-Peer-Hop: 1\r\nX-Darwin-Gossip: Zm9v\r\n\r\n"
	if req := <-got; req != want {
		t.Fatalf("request\n%q\nwant\n%q", req, want)
	}
	if c.head.status != http.StatusNotFound {
		t.Fatalf("status %d", c.head.status)
	}
	for i, want := range []struct {
		val string
		ok  bool
	}{{"abc", true}, {"", true}, {"", false}} {
		if v, ok := c.header(i); string(v) != want.val || ok != want.ok {
			t.Fatalf("wanted header %d = %q, %v; want %q, %v", i, v, ok, want.val, want.ok)
		}
	}
}

// TestUpstreamBadBaseURL: a base this client cannot serve is remembered at
// construction and returned by every get, as http.NewRequest's error was.
func TestUpstreamBadBaseURL(t *testing.T) {
	for _, base := range []string{"", "127.0.0.1:9000", "https://origin.example", "http://", "http://bad host/"} {
		u := newUpstream(base)
		if u.err == nil {
			t.Fatalf("base %q accepted", base)
		}
		if _, err := u.get(context.Background(), 1, 1); err != u.err {
			t.Fatalf("base %q: get returned %v, want the construction error", base, err)
		}
	}
}

// TestUpstreamStaleKeepAliveRetriedOnce: a reused connection the backend
// closed while it sat idle fails before any response byte; that — and only
// that — is retried, once, on a fresh connection.
func TestUpstreamStaleKeepAliveRetriedOnce(t *testing.T) {
	const answer = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
	closed := make(chan struct{}, 8)
	serveOnce := func(c net.Conn, response string) {
		if readRequest(bufio.NewReader(c)) {
			_, _ = io.WriteString(c, response)
		}
		c.Close()
		closed <- struct{}{}
	}

	t.Run("retried", func(t *testing.T) {
		b := newRawBackend(t, func(c net.Conn, _ int) { serveOnce(c, answer) })
		u := newUpstream(b.url)
		for i := int32(1); i <= 3; i++ {
			if n, err := fetch(u); err != nil || n != 5 {
				t.Fatalf("fetch %d: %d bytes, %v", i, n, err)
			}
			<-closed // the pooled connection is now stale
			if got := b.conns.Load(); got != i {
				t.Fatalf("after fetch %d the backend has accepted %d connections", i, got)
			}
		}
	})

	t.Run("once", func(t *testing.T) {
		// The first connection answers; every later one is closed unanswered.
		b := newRawBackend(t, func(c net.Conn, index int) {
			if index == 0 {
				serveOnce(c, answer)
				return
			}
			serveOnce(c, "")
		})
		u := newUpstream(b.url)
		if _, err := fetch(u); err != nil {
			t.Fatal(err)
		}
		<-closed
		if _, err := fetch(u); err == nil {
			t.Fatal("fetch from a backend that closes every connection succeeded")
		}
		if got := b.conns.Load(); got != 2 {
			t.Fatalf("backend accepted %d connections, want 2: the stale one and exactly one retry", got)
		}
	})

	t.Run("not after the first byte", func(t *testing.T) {
		// Keep-alive connection whose second answer dies mid-head.
		b := newRawBackend(t, func(c net.Conn, _ int) {
			r := bufio.NewReader(c)
			if readRequest(r) {
				_, _ = io.WriteString(c, answer)
			}
			if readRequest(r) {
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nConte")
			}
		})
		u := newUpstream(b.url)
		if _, err := fetch(u); err != nil {
			t.Fatal(err)
		}
		if _, err := fetch(u); err != io.ErrUnexpectedEOF {
			t.Fatalf("fetch over a connection that died mid-head: %v, want unexpected EOF", err)
		}
		if got := b.conns.Load(); got != 1 {
			t.Fatalf("backend accepted %d connections, want 1: a failure after the first byte is not retried", got)
		}
	})
}

// TestUpstreamContextEndsExchange: the context is the only way an exchange is
// cut short, and its error is the one returned — cancelled mid-body, or its
// deadline passing while the backend says nothing — and the connection is
// closed, never pooled.
func TestUpstreamContextEndsExchange(t *testing.T) {
	t.Run("cancel mid-body", func(t *testing.T) {
		sawClose := make(chan error, 1)
		b := newRawBackend(t, func(c net.Conn, _ int) {
			r := bufio.NewReader(c)
			if !readRequest(r) {
				return
			}
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello")
			_, err := r.ReadByte() // parks until the client closes
			sawClose <- err
		})
		u := newUpstream(b.url)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c, err := u.get(ctx, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(20*time.Millisecond, cancel)
		n, err := c.discard()
		if err != context.Canceled || n != 5 {
			t.Fatalf("discard = %d, %v; want 5, context.Canceled", n, err)
		}
		c.release()
		if err := <-sawClose; err != io.EOF {
			t.Fatalf("backend's read ended with %v, want EOF: the connection was not closed", err)
		}
		if len(u.idle) != 0 {
			t.Fatal("a cancelled connection was pooled")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		b := newRawBackend(t, func(c net.Conn, _ int) {
			_, _ = bufio.NewReader(c).ReadByte() // reads the request, answers nothing
			_, _ = c.Read(make([]byte, 1<<10))
		})
		u := newUpstream(b.url)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := u.get(ctx, 1, 1)
		if err != context.DeadlineExceeded {
			t.Fatalf("get = %v, want context.DeadlineExceeded", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("get took %v past a 30 ms deadline", el)
		}
		if _, err := u.get(ctx, 1, 1); err != context.DeadlineExceeded {
			t.Fatalf("get on an ended context = %v", err)
		}
		if got := b.conns.Load(); got != 1 {
			t.Fatalf("backend accepted %d connections, want 1: an ended context must not dial", got)
		}
	})
}

// TestUpstreamIdleBoundedAndAged: the idle stack never exceeds its cap, hands
// out the most recently used connection, and lazily drops what has sat too
// long — with no goroutine of its own.
func TestUpstreamIdleBoundedAndAged(t *testing.T) {
	b := newRawBackend(t, answerEach("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", false))
	u := newUpstream(b.url)
	held := make([]*upConn, upstreamMaxIdle+3)
	for i := range held {
		c, err := u.get(context.Background(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = c
	}
	for _, c := range held {
		c.release()
	}
	if n := len(u.idle); n != upstreamMaxIdle {
		t.Fatalf("%d idle connections, cap %d", n, upstreamMaxIdle)
	}
	if c := u.takeIdle(); c != held[len(held)-1] {
		t.Fatal("takeIdle did not return the most recently released connection")
	}
	// Everything but the newest two has sat too long.
	for _, c := range u.idle[:len(u.idle)-2] {
		c.idleAt = c.idleAt.Add(-upstreamIdleAge)
	}
	if c := u.takeIdle(); c == nil || len(u.idle) != 1 {
		t.Fatalf("after ageing: got %v, %d left idle, want a connection and 1", c, len(u.idle))
	}
}

// pipeBackend answers every request on an in-memory connection with one
// fixed response, allocating nothing per request.
func pipeBackend(response string) func(context.Context, string, string) (net.Conn, error) {
	return func(context.Context, string, string) (net.Conn, error) {
		client, srv := net.Pipe()
		go func() {
			defer srv.Close()
			resp := []byte(response)
			buf := make([]byte, 4<<10)
			n := 0
			for {
				m, err := srv.Read(buf[n:])
				if err != nil {
					return
				}
				if n += m; !bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
					continue
				}
				n = 0
				if _, err := srv.Write(resp); err != nil {
					return
				}
			}
		}()
		return client, nil
	}
}

// TestUpstreamRoundTripAllocs pins what a round trip on a kept-alive
// connection allocates: context.AfterFunc's registration under a cancellable
// context and nothing else — no request, URL, header map or per-exchange
// buffer.
func TestUpstreamRoundTripAllocs(t *testing.T) {
	u := newUpstream("http://in-memory", relayHeaders...)
	u.dial = pipeBackend("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 5\r\nX-Cache: hoc-hit\r\n\r\nhello")
	roundTrip := func(ctx context.Context) {
		c, err := u.get(ctx, 123456, 5, DeadlineHeader, "250")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := c.discard(); n != 5 || err != nil {
			t.Fatalf("discard = %d, %v", n, err)
		}
		if v, ok := c.header(2); !ok || string(v) != "hoc-hit" {
			t.Fatalf("X-Cache = %q, %v", v, ok)
		}
		c.release()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	roundTrip(ctx) // dial
	if got := testing.AllocsPerRun(200, func() { roundTrip(context.Background()) }); got != 0 {
		t.Errorf("round trip under a context that cannot end: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { roundTrip(ctx) }); got != 2 {
		t.Errorf("round trip under a cancellable context: %v allocs, want 2 (context.AfterFunc's context and stop function)", got)
	}
	if len(u.idle) != 1 {
		t.Fatalf("%d idle connections after serial round trips, want 1", len(u.idle))
	}
	closeConns(u.idle)
}

// TestOriginConnectionsAreReused: concurrent misses reuse the origin
// connections of the round before. (http.DefaultTransport kept two idle
// connections per host, so at concurrency 32 thirty were closed after every
// round and dialled again for the next.)
func TestOriginConnectionsAreReused(t *testing.T) {
	const clients, rounds = 32, 20
	var dials atomic.Int32
	originSrv := httptest.NewUnstartedServer(&Origin{})
	originSrv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	originSrv.Start()
	defer originSrv.Close()
	proxy := NewOverloadProxy(staticDecider(t, 2), originSrv.URL, 0, Resilience{}, Overload{})
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				w := httptest.NewRecorder()
				proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/"+strconv.FormatUint(id, 10)+"?size=2000", nil))
				if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
					t.Errorf("object %d: status %d, X-Cache %q", id, w.Code, w.Header().Get("X-Cache"))
				}
			}(uint64(round*clients + cl + 1))
		}
		wg.Wait()
	}
	if st := proxy.Stats(); st.OriginFetches != clients*rounds {
		t.Fatalf("%d origin fetches, want %d distinct misses", st.OriginFetches, clients*rounds)
	}
	if got := dials.Load(); got > clients {
		t.Fatalf("%d origin connections opened for %d rounds of %d concurrent misses, want <= %d", got, rounds, clients, clients)
	}
}

// TestOriginFetchBackstop: in the bare pipeline (no FetchTimeout, no client
// deadline) the backstop is the only bound on a fetch from a wedged origin.
func TestOriginFetchBackstop(t *testing.T) {
	defer func(d time.Duration) { originBackstop = d }(originBackstop)
	originBackstop = 50 * time.Millisecond
	in := faults.New(faults.Config{Seed: 1, StallRate: 1, Stall: time.Second})
	originSrv := httptest.NewServer(in.Wrap(&Origin{}))
	defer originSrv.Close()
	proxy := NewOverloadProxy(staticDecider(t, 1), originSrv.URL, 0, Resilience{}, Overload{})
	start := time.Now()
	w := httptest.NewRecorder()
	proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=1000", nil))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", w.Code)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("fetch from a stalled origin took %v, want the 50 ms backstop", el)
	}
	if !strings.Contains(w.Body.String(), context.DeadlineExceeded.Error()) {
		t.Fatalf("502 body %q does not name the deadline", w.Body.String())
	}
}
