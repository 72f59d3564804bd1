package reswire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/resd"
)

// ErrClientClosed reports a call on a closed client (or one whose
// connection died mid-call; the underlying cause is wrapped).
var ErrClientClosed = errors.New("reswire: client closed")

// ErrTimeout reports a call that exceeded Options.CallTimeout. The
// connection stays usable — the abandoned request's late response is
// discarded when it arrives — but the operation may still have executed
// on the server (a timed-out Reserve can still have admitted).
var ErrTimeout = errors.New("reswire: call timeout")

// Options parameterises Dial.
type Options struct {
	// Conns is the number of TCP connections the client multiplexes
	// callers over (default 1). Calls are spread round-robin.
	Conns int
	// Pipeline allows many in-flight requests per connection, with the
	// client coalescing their writes into one flush per batch. Off, each
	// connection carries one request at a time (write, flush, wait) —
	// the classic RPC shape, kept as the benchmark baseline.
	Pipeline bool
	// Window caps in-flight requests per connection when pipelining
	// (default 256; forced to 1 when Pipeline is false).
	Window int
	// CallTimeout bounds each call — window admission, write, and the
	// wait for the response — failing it with ErrTimeout when exceeded.
	// 0 (the default) waits forever.
	CallTimeout time.Duration
	// Metrics attaches wire instrumentation (side "client"): per-op
	// latency, in-flight window, socket bytes, frame errors, response
	// codes. Nil leaves instrumentation off.
	Metrics *Metrics
}

func (o Options) normalize() (Options, error) {
	if o.Conns == 0 {
		o.Conns = 1
	}
	if o.Conns < 1 {
		return o, fmt.Errorf("reswire: Conns=%d, need >= 1", o.Conns)
	}
	if o.Window == 0 {
		o.Window = 256
	}
	if o.Window < 1 {
		return o, fmt.Errorf("reswire: Window=%d, need >= 1", o.Window)
	}
	if o.CallTimeout < 0 {
		return o, fmt.Errorf("reswire: CallTimeout=%v, need >= 0", o.CallTimeout)
	}
	if !o.Pipeline {
		o.Window = 1
	}
	return o, nil
}

// Client is the remote face of a resd.Service: Admit, Cancel, Query,
// Snapshot, Stats and Ping with the same signatures and the same typed
// errors (errors.Is(err, resd.ErrDeadline) works on both sides of the
// wire). All methods are safe for concurrent use; concurrent callers
// are multiplexed over the configured connections and, when pipelining,
// their requests share flushes. After Close every method returns
// ErrClientClosed.
type Client struct {
	addr   string
	conns  []*clientConn
	rr     atomic.Uint64
	closed atomic.Bool
	done   chan struct{} // closed by Close; ends Watch streams
}

// Dial connects to a reswire server.
func Dial(addr string, opts Options) (*Client, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, done: make(chan struct{})}
	for i := 0; i < opts.Conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("reswire: dial %s: %w", addr, err)
		}
		c.conns = append(c.conns, newClientConn(nc, opts, opts.Metrics))
	}
	return c, nil
}

// Close tears down every connection and ends every Watch stream.
// In-flight and subsequent calls fail with ErrClientClosed.
func (c *Client) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.done)
	}
	for _, cc := range c.conns {
		cc.close(ErrClientClosed)
	}
	return nil
}

// pick spreads calls over the connections round-robin.
func (c *Client) pick() *clientConn {
	return c.conns[int(c.rr.Add(1)-1)%len(c.conns)]
}

// call performs one round trip and maps the response code to an error.
func (c *Client) call(req Request) (Response, error) {
	if c.closed.Load() {
		return Response{}, ErrClientClosed
	}
	resp, err := c.pick().call(req)
	if err != nil {
		return Response{}, err
	}
	if resp.Op != req.Op {
		return Response{}, fmt.Errorf("%w: response op %s for %s request", ErrFrame, resp.Op, req.Op)
	}
	if resp.Code != CodeOK {
		return Response{}, resp.Code.Err(resp.Detail)
	}
	return resp, nil
}

// Admit admits a reservation exactly like resd.Service.Admit but over
// the wire: same resd.Request, same typed errors (a REJECTED_DEADLINE
// response surfaces as resd.ErrDeadline, REJECTED_QUOTA as
// tenant.ErrQuota). Remember req.Deadline is literal — set
// resd.NoDeadline to disable the deadline check.
//
// Every frame carries the client's send stamp, so when the server
// samples the admission its TraceRecord shows the true cross-wire span
// (TraceRecord.ClientSend). Set req.Trace to force the sample — see
// AdmitTraced.
func (c *Client) Admit(req resd.Request) (resd.Reservation, error) {
	stamp := req.ClientSend
	if stamp == 0 {
		stamp = time.Now().UnixNano()
	}
	resp, err := c.call(Request{Op: OpReserve, Tenant: req.Tenant, Ready: req.Ready, Procs: req.Q, Dur: req.Dur, Deadline: req.Deadline,
		Stamp: stamp, Traced: req.Trace})
	if err != nil {
		return resd.Reservation{}, err
	}
	return resp.Resv, nil
}

// AdmitTraced is Admit with the trace flag set: the server records the
// admission in its trace ring regardless of the sampling rate (a no-op
// on servers running with tracing disabled), and the record carries
// this call's send stamp as the cross-wire span.
func (c *Client) AdmitTraced(req resd.Request) (resd.Reservation, error) {
	req.Trace = true
	return c.Admit(req)
}

// QuotaGet reads one tenant's quota state from the server's registry ("" =
// the default tenant).
func (c *Client) QuotaGet(ten string) (QuotaInfo, error) {
	resp, err := c.call(Request{Op: OpQuotaGet, Tenant: ten})
	if err != nil {
		return QuotaInfo{}, err
	}
	return resp.Quota, nil
}

// QuotaSet re-budgets a tenant at runtime: its share of its group's
// budget becomes share ∈ (0,1]. Unknown tenants are created in the
// default group, mirroring what their first admission would do.
func (c *Client) QuotaSet(ten string, share float64) error {
	_, err := c.call(Request{Op: OpQuotaSet, Tenant: ten, Share: share})
	return err
}

// Cancel releases an admitted reservation.
func (c *Client) Cancel(id resd.ID) error {
	_, err := c.call(Request{Op: OpCancel, Resv: uint64(id)})
	return err
}

// Query returns the per-shard free capacity at time t.
func (c *Client) Query(t core.Time) ([]int, error) {
	resp, err := c.call(Request{Op: OpQuery, Ready: t})
	if err != nil {
		return nil, err
	}
	return resp.Free, nil
}

// Stats returns the per-shard load summaries.
func (c *Client) Stats() ([]resd.ShardStats, error) {
	resp, err := c.call(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Ping performs one empty round trip (liveness / RTT probe).
func (c *Client) Ping() error {
	_, err := c.call(Request{Op: OpPing})
	return err
}

// Traces reads the server's newest sampled admission traces, oldest
// first, up to max (max <= 0 asks for the whole ring). Empty when the
// server runs with tracing disabled.
func (c *Client) Traces(max int) ([]resd.TraceRecord, error) {
	resp, err := c.call(Request{Op: OpTrace, Limit: max})
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// WatchOptions parameterises Client.Watch.
type WatchOptions struct {
	// Interval is the requested push period (default 1s). The server
	// clamps it into [MinWatchInterval, MaxWatchInterval].
	Interval time.Duration
	// Mask selects the telemetry families (0 = WatchAll).
	Mask uint32
	// Buffer is the capacity of the returned channel (default 16). A
	// consumer that stops draining eventually back-pressures through
	// TCP; the server then drops frames and marks the gap in the next
	// delivered frame's Dropped count rather than blocking anything.
	Buffer int
}

// watchRedialDelay paces resubscription attempts after a Watch stream's
// connection dies.
const watchRedialDelay = 100 * time.Millisecond

// Watch subscribes to server-pushed telemetry and returns the stream.
// Each received frame is one Telemetry snapshot of the families
// opts.Mask selected, pushed by the server every opts.Interval without
// the client issuing any polls. The subscription rides its own
// connection; if that connection dies the stream redials and
// resubscribes transparently until ctx is cancelled or the client is
// closed (the channel then closes). After a resubscribe the frame Seq
// and Dropped counters restart — the telemetry counters themselves are
// cumulative on the server, so consumer-side deltas stay monotone
// across reconnects.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) (<-chan Telemetry, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("reswire: watch interval %v negative", opts.Interval)
	}
	if opts.Interval == 0 {
		opts.Interval = time.Second
	}
	if opts.Mask == 0 {
		opts.Mask = WatchAll
	}
	if !validWatchMask(opts.Mask) {
		return nil, fmt.Errorf("reswire: watch mask %#x", opts.Mask)
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 16
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The first subscription happens synchronously so the caller learns
	// about an unreachable server immediately, not as a silent
	// redial-forever stream.
	nc, err := c.watchDial(opts)
	if err != nil {
		return nil, err
	}
	ch := make(chan Telemetry, opts.Buffer)
	go c.watchStream(ctx, nc, opts, ch)
	return ch, nil
}

// watchDial opens a dedicated connection and writes the subscribe frame.
func (c *Client) watchDial(opts WatchOptions) (net.Conn, error) {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("reswire: watch dial %s: %w", c.addr, err)
	}
	buf, err := AppendRequest(nil, Request{ID: 1, Op: OpWatch, Interval: opts.Interval, Mask: opts.Mask})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := nc.Write(buf); err != nil {
		nc.Close()
		return nil, fmt.Errorf("reswire: watch subscribe %s: %w", c.addr, err)
	}
	return nc, nil
}

// watchStream pumps one Watch subscription, redialling and resubscribing
// when its connection dies, until ctx is cancelled, the client closes,
// or the server refuses the subscription outright.
func (c *Client) watchStream(ctx context.Context, nc net.Conn, opts WatchOptions, ch chan<- Telemetry) {
	defer close(ch)
	for {
		if !c.watchRead(ctx, nc, ch) {
			return
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.done:
				return
			case <-time.After(watchRedialDelay):
			}
			var err error
			if nc, err = c.watchDial(opts); err == nil {
				break
			}
		}
	}
}

// watchRead forwards one connection's telemetry frames into ch until the
// connection dies. It reports whether the stream should resubscribe:
// true after a transport failure, false on cancellation or a server
// refusal (which a retry cannot fix).
func (c *Client) watchRead(ctx context.Context, nc net.Conn, ch chan<- Telemetry) bool {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Unblock the read below when the stream is cancelled.
		select {
		case <-ctx.Done():
		case <-c.done:
		case <-stop:
		}
		nc.Close()
	}()
	cancelled := func() bool {
		select {
		case <-ctx.Done():
			return true
		case <-c.done:
			return true
		default:
			return false
		}
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		resp, err := ReadResponse(br)
		if err != nil {
			return !cancelled()
		}
		if resp.Op != OpWatch || resp.Code != CodeOK || resp.Telemetry == nil {
			// The server refused the subscription (or broke protocol);
			// resubscribing would only repeat the answer.
			return false
		}
		select {
		case ch <- *resp.Telemetry:
		case <-ctx.Done():
			return false
		case <-c.done:
			return false
		}
	}
}

// Snapshot fetches one shard's capacity profile and rebuilds it as a
// local index (wrapped in profile.Synchronized like the in-process
// Snapshot), so remote callers can run FindSlot/FreeArea/What-if queries
// without further round trips.
func (c *Client) Snapshot(shard int) (*profile.Synchronized, error) {
	resp, err := c.call(Request{Op: OpSnapshot, Shard: shard})
	if err != nil {
		return nil, err
	}
	if resp.M < 1 {
		return nil, fmt.Errorf("%w: snapshot machine size %d", ErrFrame, resp.M)
	}
	tl := profile.New(resp.M)
	for i, seg := range resp.Segs {
		// Validate every segment — including fully-free ones — before any
		// commit: a malformed sequence must fail loudly, not rebuild a
		// quietly divergent profile.
		if seg.Free < 0 || seg.Free > resp.M {
			return nil, fmt.Errorf("%w: segment %d free %d outside [0,%d]", ErrFrame, i, seg.Free, resp.M)
		}
		if seg.Start < 0 {
			return nil, fmt.Errorf("%w: segment %d starts at %v", ErrFrame, i, seg.Start)
		}
		dur := core.Infinity // last segment extends unbounded
		if i+1 < len(resp.Segs) {
			if resp.Segs[i+1].Start <= seg.Start {
				return nil, fmt.Errorf("%w: segment starts not increasing at %d", ErrFrame, i)
			}
			dur = resp.Segs[i+1].Start - seg.Start
		}
		held := resp.M - seg.Free
		if held == 0 {
			continue
		}
		if err := tl.Commit(seg.Start, dur, held); err != nil {
			return nil, fmt.Errorf("reswire: rebuild snapshot: %w", err)
		}
	}
	return profile.NewSynchronized(tl), nil
}

// clientConn is one multiplexed connection: callers register a pending
// reply slot keyed by request id, push the encoded frame to the writer,
// and block on their slot; the reader routes responses back by id.
type clientConn struct {
	nc      net.Conn
	wc      net.Conn // nc behind the byte counters when instrumented
	m       *Metrics
	timeout time.Duration // 0 = wait forever
	sem     chan struct{} // in-flight window
	writeCh chan []byte

	mu      sync.Mutex
	pending map[uint64]chan Response
	// stale holds ids of timed-out calls whose response has not arrived:
	// the reader discards those instead of treating them as protocol
	// violations.
	stale  map[uint64]struct{}
	nextID uint64

	closeOnce sync.Once
	closed    chan struct{}
	errv      atomic.Value // error: why the connection died
}

func newClientConn(nc net.Conn, opts Options, m *Metrics) *clientConn {
	cc := &clientConn{
		nc:      nc,
		wc:      m.wrap(nc),
		m:       m,
		timeout: opts.CallTimeout,
		sem:     make(chan struct{}, opts.Window),
		writeCh: make(chan []byte, opts.Window),
		pending: make(map[uint64]chan Response),
		stale:   make(map[uint64]struct{}),
		closed:  make(chan struct{}),
	}
	go cc.writeLoop()
	go cc.readLoop()
	return cc
}

// close marks the connection dead with cause, fails every pending call
// and closes the socket. Idempotent; the first cause wins.
func (cc *clientConn) close(cause error) {
	cc.closeOnce.Do(func() {
		cc.errv.Store(cause)
		close(cc.closed)
		cc.nc.Close()
		cc.mu.Lock()
		pend := cc.pending
		cc.pending = nil
		cc.mu.Unlock()
		for _, ch := range pend {
			close(ch)
		}
	})
}

// deadErr reports why the connection died, wrapped for errors.Is on
// ErrClientClosed.
func (cc *clientConn) deadErr() error {
	cause, _ := cc.errv.Load().(error)
	if cause == nil || errors.Is(cause, ErrClientClosed) {
		return ErrClientClosed
	}
	return fmt.Errorf("%w: %v", ErrClientClosed, cause)
}

// call sends one request and blocks for its response, bounded by the
// connection's call timeout when one is configured.
func (cc *clientConn) call(req Request) (Response, error) {
	var timeoutCh <-chan time.Time
	if cc.timeout > 0 {
		timer := time.NewTimer(cc.timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case cc.sem <- struct{}{}:
	case <-cc.closed:
		return Response{}, cc.deadErr()
	case <-timeoutCh:
		return Response{}, fmt.Errorf("%w: no window slot within %v", ErrTimeout, cc.timeout)
	}
	defer func() { <-cc.sem }()
	start := cc.m.begin()
	defer cc.m.end()

	ch := make(chan Response, 1)
	cc.mu.Lock()
	if cc.pending == nil {
		cc.mu.Unlock()
		return Response{}, cc.deadErr()
	}
	cc.nextID++
	req.ID = cc.nextID
	cc.pending[req.ID] = ch
	cc.mu.Unlock()

	buf, err := AppendRequest(nil, req)
	if err != nil {
		cc.forget(req.ID)
		return Response{}, err
	}
	select {
	case cc.writeCh <- buf:
	case <-cc.closed:
		cc.forget(req.ID)
		return Response{}, cc.deadErr()
	case <-timeoutCh:
		cc.forget(req.ID)
		return Response{}, fmt.Errorf("%w: %s not written within %v", ErrTimeout, req.Op, cc.timeout)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return Response{}, cc.deadErr()
		}
		cc.m.observe(req.Op, start, resp.Code)
		return resp, nil
	case <-timeoutCh:
		if cc.abandon(req.ID) {
			return Response{}, fmt.Errorf("%w: no %s response within %v", ErrTimeout, req.Op, cc.timeout)
		}
		// The response won the race: the reader has already taken the id
		// off pending, so the buffered send (or the close) is imminent.
		resp, ok := <-ch
		if !ok {
			return Response{}, cc.deadErr()
		}
		cc.m.observe(req.Op, start, resp.Code)
		return resp, nil
	}
}

// forget drops a pending slot after a local failure (nothing was sent,
// so no response will ever arrive for the id).
func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	if cc.pending != nil {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
}

// abandon gives up on an in-flight request at timeout: the id moves to
// the stale set so the reader discards its late response. Reports false
// when the request is no longer pending — its response already arrived
// (buffered on the slot) or the connection died.
func (cc *clientConn) abandon(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.pending == nil {
		return false
	}
	if _, ok := cc.pending[id]; !ok {
		return false
	}
	delete(cc.pending, id)
	cc.stale[id] = struct{}{}
	return true
}

// writeLoop drains queued frames and flushes once per batch (the
// drainRounds yield-then-drain), so with many callers in flight one
// syscall carries many requests — the client-side write coalescing that
// makes pipelining pay.
func (cc *clientConn) writeLoop() {
	bw := bufio.NewWriterSize(cc.wc, 64<<10)
	for {
		var buf []byte
		select {
		case buf = <-cc.writeCh:
		case <-cc.closed:
			return
		}
		if _, err := bw.Write(buf); err != nil {
			cc.close(err)
			return
		}
		// writeCh never closes, so a false return always means a write
		// error; close(err) already ran inside emit.
		if !drainRounds(cc.writeCh, func(more []byte) bool {
			if _, err := bw.Write(more); err != nil {
				cc.close(err)
				return false
			}
			return true
		}) {
			return
		}
		if err := bw.Flush(); err != nil {
			cc.close(err)
			return
		}
	}
}

// readLoop decodes responses and routes them to their pending slot. An
// unknown id is a protocol violation and kills the connection.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.wc, 64<<10)
	for {
		resp, err := ReadResponse(br)
		if err != nil {
			cc.m.frameError(err)
			cc.close(err)
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		} else if _, timedOut := cc.stale[resp.ID]; timedOut {
			// The caller gave up on this one: drop the late response and
			// keep the connection.
			delete(cc.stale, resp.ID)
			cc.mu.Unlock()
			continue
		}
		cc.mu.Unlock()
		if !ok {
			cc.close(fmt.Errorf("%w: response for unknown request id %d", ErrFrame, resp.ID))
			return
		}
		ch <- resp
	}
}
