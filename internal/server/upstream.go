package server

// upstream is the data plane's one HTTP client: the front tier's relay, the
// proxy's origin fetch and the peer probe are all GET <fixed backend>
// /obj/<id>?size=<n>, and all three go through it. It is synchronous — the
// calling goroutine renders the request into the connection's scratch buffer,
// writes it, and parses the response head itself — where http.Transport hands
// every round trip to a per-connection writeLoop and readLoop and back: four
// goroutine hand-offs, an http.Request, a parsed URL and two header maps per
// request, to carry a routing decision that costs nanoseconds.
//
// Deliberately unsupported, because no backend of this prototype needs it:
// TLS, redirects, proxies, request bodies, 1xx interim responses, and reuse
// of a connection after a chunked or close-delimited answer (both are framed
// correctly; the connection is closed afterwards). The control plane
// (/gossip and /readyz polls, the /state push: POSTs with bodies, a few per
// second) is a different job and stays on *http.Client.
//
// Cancellation reaches a connection one way only: context.AfterFunc poisons
// its deadline when the caller's context ends. The context's deadline is never
// copied onto the socket — the socket's timer would fire a hair before the
// context's, and a caller testing ctx.Err() to tell "the client's time ran
// out" from "the backend failed" would see the second. Every failure is
// therefore reported as ctx.Err() whenever the context has ended.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"time"
)

const (
	// upstreamBufSize is a connection's read buffer, and so the largest
	// response head accepted (a peer probe's answer carries a gossip digest:
	// 16 header bytes per cluster node).
	upstreamBufSize = 8 << 10
	// upstreamMaxIdle bounds the idle connections kept per backend.
	upstreamMaxIdle = 256
	// upstreamIdleAge is how long an idle connection stays usable: under the
	// 60 s after which Run's servers close theirs, so reuse rarely meets a
	// connection the backend has already dropped.
	upstreamIdleAge = 30 * time.Second
	// upstreamDrainMax is the largest unread remainder release reads off to
	// keep a connection (an error page nobody wanted) instead of closing it.
	upstreamDrainMax = 1 << 10
)

// errBadHead rejects a response head this client will not frame a body by.
var errBadHead = errors.New("server: upstream: malformed response head")

// errHeadTooLarge rejects a response head beyond upstreamBufSize.
var errHeadTooLarge = errors.New("server: upstream: response head too large")

// pastDeadline is the deadline that poisons a connection's pending and
// future I/O.
var pastDeadline = time.Unix(1, 0)

type upstream struct {
	// err is the construction error of an unusable base URL; every get
	// returns it.
	err  error
	addr string
	// prefix and suffix are the request line and Host header around the
	// object id and size: "GET <path>/obj/" and " HTTP/1.1\r\nHost: <host>\r\n".
	prefix, suffix []byte
	// want names the response headers whose values callers read, by index.
	want []string
	// dial opens a connection; tests substitute in-memory and scripted ones.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu sync.Mutex
	// idle is a LIFO of reusable connections, oldest first: the most
	// recently used is taken, so a burst's surplus ages out at the bottom.
	idle []*upConn // guarded by mu
}

// newUpstream binds a client to base ("http://host[:port]", optionally with a
// path prefix). want lists the response headers get's callers will read with
// upConn.header, in index order.
func newUpstream(base string, want ...string) *upstream {
	u := &upstream{want: want, dial: new(net.Dialer).DialContext}
	pu, err := url.Parse(base)
	switch {
	case err != nil:
		u.err = fmt.Errorf("server: upstream: %w", err)
		return u
	case pu.Scheme != "http" || pu.Host == "":
		u.err = fmt.Errorf("server: upstream %q: want http://host[:port]", base)
		return u
	}
	u.addr = pu.Host
	if pu.Port() == "" {
		u.addr = net.JoinHostPort(pu.Hostname(), "80")
	}
	u.prefix = []byte("GET " + pu.EscapedPath() + "/obj/")
	u.suffix = []byte(" HTTP/1.1\r\nHost: " + pu.Host + "\r\n")
	return u
}

// upConn is one keep-alive connection and, between get and release, the
// exchange in flight on it.
type upConn struct {
	u    *upstream
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // request scratch
	// poisonFn is c.poison bound once, so registering it per exchange does
	// not allocate a method value.
	poisonFn func()
	idleAt   time.Time

	ctx  context.Context
	stop func() bool // detaches poisonFn from ctx; nil when ctx cannot end
	// sawByte records that the backend answered anything at all: before it,
	// a failure on a reused connection is a stale keep-alive and retried.
	sawByte bool
	// broken records an I/O or framing error: the stream position is unknown.
	broken bool

	head upHead
	// body is the framed response body: &lim for a declared length, a
	// chunked reader, or br itself for a close-delimited answer.
	body io.Reader
	lim  io.LimitedReader
}

// upHead is a parsed response head.
type upHead struct {
	status int
	// length is the declared Content-Length, -1 when absent.
	length  int64
	chunked bool
	// keep is what the head allows: HTTP/1.1 without Connection: close.
	keep bool
	// vals holds the wanted header values, copied out of the read buffer;
	// at[i] is want[i]'s span in it, at[i][0] < 0 when absent.
	vals []byte
	at   [][2]int
}

// get sends GET <base>/obj/<id>?size=<size> with the extra request headers
// hdr (name, value, name, value…; none of them may carry CR or LF — every
// caller passes constants, base64, or a value net/http's server already
// vetted) and returns the connection positioned at the response body. The
// caller reads c.head, consumes the body with discard or writeTo, and must
// call release.
//
// A failure on a reused connection before the first response byte is a stale
// keep-alive — the backend closed it while it sat idle — and is retried once,
// on a fresh connection. Nothing is retried after a byte has been seen.
func (u *upstream) get(ctx context.Context, id uint64, size int64, hdr ...string) (*upConn, error) {
	if u.err != nil {
		return nil, u.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := u.takeIdle()
	for {
		reused := c != nil
		if !reused {
			conn, err := u.dial(ctx, "tcp", u.addr)
			if err != nil {
				return nil, ctxOr(ctx, err)
			}
			c = u.newConn(conn)
		}
		err := c.exchange(ctx, id, size, hdr)
		if err == nil {
			return c, nil
		}
		stale := reused && !c.sawByte
		c.close()
		if cerr := ctxOr(ctx, nil); cerr != nil {
			return nil, cerr
		}
		if !stale {
			return nil, err
		}
		c = nil
	}
}

// ctxOr returns ctx's error if the context has ended and err otherwise. The
// dialer is the one place a context's deadline still reaches a socket timer
// (net.Dialer copies it), so a context whose deadline has passed on the clock
// but whose own timer has not fired yet is waited for: it is microseconds away.
func ctxOr(ctx context.Context, err error) error {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func (u *upstream) newConn(conn net.Conn) *upConn {
	c := &upConn{
		u:    u,
		conn: conn,
		br:   bufio.NewReaderSize(conn, upstreamBufSize),
		wbuf: make([]byte, 0, 256),
	}
	c.head.vals = make([]byte, 0, 256)
	c.head.at = make([][2]int, len(u.want))
	c.poisonFn = c.poison
	return c
}

// poison fails the connection's pending and future I/O. It runs on the
// context's goroutine, possibly while the owner is closing the connection;
// net.Conn allows both.
func (c *upConn) poison() {
	_ = c.conn.SetDeadline(pastDeadline) // the connection is being abandoned either way
}

// exchange writes one request and parses the response head.
func (c *upConn) exchange(ctx context.Context, id uint64, size int64, hdr []string) error {
	c.ctx, c.sawByte, c.broken = ctx, false, false
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.poisonFn)
	}
	b := append(c.wbuf[:0], c.u.prefix...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, "?size="...)
	b = strconv.AppendInt(b, size, 10)
	b = append(b, c.u.suffix...)
	for i := 0; i+1 < len(hdr); i += 2 {
		b = append(b, hdr[i]...)
		b = append(b, ": "...)
		b = append(b, hdr[i+1]...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.wbuf = b
	if _, err := c.conn.Write(b); err != nil {
		return err
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	c.sawByte = true
	if err := parseHead(c.br, c.u.want, &c.head); err != nil {
		return err
	}
	h := &c.head
	switch {
	case h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		h.length, h.chunked = 0, false
		fallthrough
	case h.length >= 0:
		c.lim = io.LimitedReader{R: c.br, N: h.length}
		c.body = &c.lim
	case h.chunked:
		c.body = httputil.NewChunkedReader(c.br)
	default:
		c.body = c.br
	}
	return nil
}

// header returns the value of the i-th wanted response header.
func (c *upConn) header(i int) ([]byte, bool) {
	at := c.head.at[i]
	if at[0] < 0 {
		return nil, false
	}
	return c.head.vals[at[0]:at[1]], true
}

// discard reads the body to its end and returns its length. A body shorter
// than declared is io.ErrUnexpectedEOF.
func (c *upConn) discard() (int64, error) {
	buf := getCopyBuf()
	defer putCopyBuf(buf)
	var n int64
	for {
		m, err := c.body.Read(*buf)
		n += int64(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, c.fail(err)
		}
	}
	if c.body == &c.lim && c.lim.N > 0 {
		return n, c.fail(io.ErrUnexpectedEOF)
	}
	return n, nil
}

// writeTo streams the body to w through a pooled buffer. w's own ReadFrom is
// hidden from io.CopyBuffer: http.response's would pass the body — not a bare
// socket — to TCPConn.ReadFrom's generic path, which allocates a buffer per
// call. (Handing it the raw connection behind an io.LimitedReader, so the
// kernel could move the bytes socket to socket, was measured and not kept:
// +3% on cluster3, inside the spread.) Errors are not returned — the status
// line is already out, so there is nobody to tell — but they keep the
// connection from being reused.
func (c *upConn) writeTo(w io.Writer) {
	buf := getCopyBuf()
	defer putCopyBuf(buf)
	if _, err := io.CopyBuffer(struct{ io.Writer }{w}, c.body, *buf); err != nil || (c.body == &c.lim && c.lim.N > 0) {
		c.broken = true
	}
}

// fail marks the stream unusable and names the failure: the context's, if
// the context has ended.
func (c *upConn) fail(err error) error {
	c.broken = true
	return ctxOr(c.ctx, err)
}

// release ends the exchange. The connection is kept only if the head allowed
// it, the body was consumed to its declared length (a short unread remainder
// is read off first), nothing failed, nothing unasked-for is buffered, and
// the context never reached it; otherwise it is closed.
func (c *upConn) release() {
	framed := c.head.keep && c.body == &c.lim
	if framed && !c.broken && 0 < c.lim.N && c.lim.N <= upstreamDrainMax {
		_, _ = c.discard() // a failure marks the connection broken, which is all that matters here
	}
	if framed && !c.broken && c.lim.N == 0 && c.br.Buffered() == 0 && c.detach() {
		c.u.putIdle(c)
		return
	}
	c.close()
}

// close abandons the connection after a failed exchange.
func (c *upConn) close() {
	c.detach()
	_ = c.conn.Close() // nothing was written that a close error could lose
}

// detach unhooks the connection from its exchange's context and reports
// whether the context left it alone: false means poison has started, and the
// connection must not be pooled (which is why reuse never resets a deadline).
func (c *upConn) detach() bool {
	clean := c.stop == nil || c.stop()
	c.ctx, c.stop = nil, nil
	return clean
}

// takeIdle pops the most recently used idle connection, if any is young
// enough. There is no janitor goroutine: age is enforced here and in putIdle.
func (u *upstream) takeIdle() *upConn {
	now := time.Now()
	u.mu.Lock()
	dead := u.reapLocked(now)
	var c *upConn
	if n := len(u.idle); n > 0 {
		c, u.idle[n-1] = u.idle[n-1], nil
		u.idle = u.idle[:n-1]
	}
	u.mu.Unlock()
	closeConns(dead)
	return c
}

// putIdle pushes c onto the idle stack, evicting the oldest when full.
func (u *upstream) putIdle(c *upConn) {
	c.idleAt = time.Now()
	u.mu.Lock()
	dead := u.reapLocked(c.idleAt)
	if len(u.idle) >= upstreamMaxIdle {
		dead = append(dead, u.idle[0])
		u.idle = append(u.idle[:0], u.idle[1:]...)
	}
	u.idle = append(u.idle, c)
	u.mu.Unlock()
	closeConns(dead)
}

// reapLocked removes and returns the idle connections older than
// upstreamIdleAge: a prefix, since the stack is ordered by age.
func (u *upstream) reapLocked(now time.Time) []*upConn {
	i := 0
	for i < len(u.idle) && now.Sub(u.idle[i].idleAt) >= upstreamIdleAge {
		i++
	}
	if i == 0 {
		return nil
	}
	dead := append([]*upConn(nil), u.idle[:i]...)
	n := copy(u.idle, u.idle[i:])
	clear(u.idle[n:])
	u.idle = u.idle[:n]
	return dead
}

func closeConns(cs []*upConn) {
	for _, c := range cs {
		_ = c.conn.Close() // idle: nothing in flight to lose
	}
}

// parseHead reads one response head from br — status line, header lines,
// blank line, and not a byte further — into h. The head is outside input:
// anything this client would have to guess a framing for is errBadHead.
func parseHead(br *bufio.Reader, want []string, h *upHead) error {
	h.length, h.chunked, h.vals = -1, false, h.vals[:0]
	for i := range h.at {
		h.at[i][0] = -1
	}
	budget := upstreamBufSize
	line, err := headLine(br, &budget)
	if err != nil {
		return err
	}
	// "HTTP/1.x SSS" and then nothing or " reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return errBadHead
	}
	h.keep = line[7] == '1'
	h.status = 0
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return errBadHead
		}
		h.status = h.status*10 + int(d-'0')
	}
	if h.status < 200 {
		return errBadHead // interim responses are not supported
	}
	for {
		if line, err = headLine(br, &budget); err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || line[0] == ' ' || line[0] == '\t' || line[colon-1] == ' ' || line[colon-1] == '\t' {
			return errBadHead // no name, an obsolete folded line, or space before the colon
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case headerIs(name, "Content-Length"):
			n, ok := parseContentLength(val)
			if !ok || (h.length >= 0 && h.length != n) {
				return errBadHead
			}
			h.length = n
		case headerIs(name, "Transfer-Encoding"):
			if !headerIs(val, "chunked") {
				return errBadHead // no other coding is supported
			}
			h.chunked = true
		case headerIs(name, "Connection"):
			if hasToken(val, "close") {
				h.keep = false
			}
		}
		for i, w := range want {
			if h.at[i][0] < 0 && headerIs(name, w) { // a repeated header: the first wins
				h.at[i] = [2]int{len(h.vals), len(h.vals) + len(val)}
				h.vals = append(h.vals, val...)
			}
		}
	}
	if h.chunked && h.length >= 0 {
		return errBadHead // two framings: the classic smuggling ambiguity
	}
	return nil
}

// headLine reads one line of a response head without its line ending,
// charging it to the head's remaining size budget. The returned slice is
// valid until the next read from br.
func headLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errHeadTooLarge
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if *budget -= len(line); *budget < 0 {
		return nil, errHeadTooLarge
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// headerIs reports whether b equals the ASCII string s, ignoring case.
func headerIs(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		x, y := b[i], s[i]
		if x != y && (x|0x20 != y|0x20 || x|0x20 < 'a' || x|0x20 > 'z') {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v has token tok.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		item := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if headerIs(bytes.Trim(item, " \t"), tok) {
			return true
		}
	}
	return false
}

// parseContentLength accepts 1–18 decimal digits and nothing else: no sign,
// no list, nothing that could overflow.
func parseContentLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, d := range v {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	return n, true
}
