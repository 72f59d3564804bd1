package reswire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/resd"
)

// ErrServerClosed is returned by Serve after Close, mirroring net/http.
var ErrServerClosed = errors.New("reswire: server closed")

// maxConnInFlight caps the number of requests one connection may have
// dispatched into the service at once. A pipelining client within the cap
// is never throttled; past it the reader stops pulling frames, which
// back-pressures through TCP instead of growing a goroutine per frame
// without bound.
const maxConnInFlight = 1024

// Watch subscription bounds: the server clamps a subscriber's interval
// into [MinWatchInterval, MaxWatchInterval] rather than refusing it, and
// caps how many live subscriptions one connection may hold.
const (
	MinWatchInterval = 10 * time.Millisecond
	MaxWatchInterval = time.Minute
	maxConnWatches   = 16
)

// Server fronts a resd.Service with the wire protocol: it decodes request
// frames, dispatches each into the service (where the shard event loops
// group-commit them exactly as for in-process callers), and writes the
// responses back with per-connection write coalescing — one flush per
// batch of responses that are ready together, not one per response.
type Server struct {
	svc     *resd.Service
	metrics *Metrics
	journal *flight.Journal

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer wraps svc. The caller retains ownership of svc: Close shuts
// down the listeners and connections but not the service.
func NewServer(svc *resd.Service) *Server {
	return &Server{
		svc:   svc,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// SetMetrics attaches wire instrumentation (side "server"). It must be
// called before Serve; connections accepted earlier are not instrumented.
// A nil Metrics leaves instrumentation off.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// SetFlight routes the server's wire anomalies (protocol refusals and
// watch slow-consumer drops) into a flight-recorder journal. Like
// SetMetrics it must be called before Serve; a nil journal (the default)
// records nothing.
func (s *Server) SetFlight(j *flight.Journal) { s.journal = j }

// Serve accepts connections on ln until Close (then ErrServerClosed) or a
// listener failure. It may be called concurrently on several listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func(c net.Conn) {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}(c)
	}
}

// Close stops the listeners, closes every live connection and waits for
// the connection handlers to drain. The wrapped resd.Service is left
// running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// serveConn runs one connection: a reader loop decoding frames and
// dispatching handler goroutines, plus a writer goroutine that coalesces
// response flushes. A protocol error (bad magic, oversized frame, …)
// closes the connection — framing is unrecoverable once desynchronised.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	wc := s.metrics.wrap(nc) // byte counters; nc stays the handle Close uses
	br := bufio.NewReaderSize(wc, 64<<10)
	out := make(chan Response, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(wc, out)
	}()

	sem := make(chan struct{}, maxConnInFlight)
	var hwg sync.WaitGroup
	connDone := make(chan struct{}) // closed when the reader exits; ends this conn's watchers
	watches := 0
	for {
		req, err := ReadRequest(br)
		if err != nil {
			s.metrics.frameError(err)
			if errors.Is(err, ErrFrame) || errors.Is(err, ErrVersion) {
				// A protocol refusal, not a closing socket: the peer sent
				// something this revision cannot parse, and the connection
				// is about to be dropped as unrecoverable.
				s.journal.Record(flight.Warn, "reswire", -1, "frame error, closing connection",
					flight.KV{K: "remote", V: nc.RemoteAddr().String()},
					flight.KV{K: "err", V: err.Error()})
			}
			break
		}
		if req.Op == OpWatch {
			// A Watch is a subscription, not a round trip: its goroutine
			// pushes telemetry frames into the connection's writer until
			// the connection closes. It reads only published atomics and
			// sends non-blockingly (drop-and-mark), so a stalled
			// subscriber never holds a shard loop, a handler, or the
			// reader hostage.
			start := s.metrics.begin()
			resp := Response{ID: req.ID, Op: OpWatch}
			if watches >= maxConnWatches {
				resp.Code = CodeBadRequest
				resp.Detail = fmt.Sprintf("reswire: %d watch subscriptions on one connection (max %d)", watches+1, maxConnWatches)
			}
			s.metrics.observe(req.Op, start, resp.Code)
			s.metrics.end()
			if resp.Code != CodeOK {
				out <- resp
				continue
			}
			watches++
			hwg.Add(1)
			go func(req Request) {
				defer hwg.Done()
				s.watchLoop(req, out, connDone)
			}(req)
			continue
		}
		sem <- struct{}{}
		hwg.Add(1)
		go func(req Request) {
			defer hwg.Done()
			start := s.metrics.begin()
			resp := s.handle(req)
			s.metrics.observe(req.Op, start, resp.Code)
			s.metrics.end()
			out <- resp
			<-sem
		}(req)
	}
	close(connDone)
	hwg.Wait()
	close(out)
	<-writerDone
}

// watchLoop is one Watch subscription: every interval it assembles a
// Telemetry snapshot from the service's published counters and offers
// it to the connection's writer. A full writer queue (slow consumer,
// stuck socket) drops the frame and counts it in the next delivered
// frame's Dropped field — the subscription never blocks, and the shard
// loops never see it at all. The first frame is pushed immediately so a
// subscriber has a baseline before the first interval elapses.
func (s *Server) watchLoop(req Request, out chan<- Response, done <-chan struct{}) {
	interval := req.Interval
	if interval < MinWatchInterval {
		interval = MinWatchInterval
	}
	if interval > MaxWatchInterval {
		interval = MaxWatchInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq, dropped uint64
	push := func() {
		t := s.telemetry(req.Mask)
		t.Seq = seq + 1
		t.Dropped = dropped
		select {
		case out <- Response{ID: req.ID, Op: OpWatch, Telemetry: t}:
			seq++
		default:
			if dropped == 0 {
				// First drop only: the subscriber's Dropped field carries
				// the running count; the journal wants the onset.
				s.journal.Record(flight.Warn, "reswire", -1, "watch subscriber slow, dropping frames",
					flight.KV{K: "watch_id", V: fmt.Sprint(req.ID)})
			}
			dropped++
		}
	}
	push()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			push()
		}
	}
}

// telemetry assembles one Watch frame from the service's published
// atomics and channel lengths — the same no-event-loop contract as a
// /metrics scrape.
func (s *Server) telemetry(mask uint32) *Telemetry {
	t := &Telemetry{Mask: mask, M: s.svc.M(), Floor: s.svc.Floor()}
	if mask&WatchShards != 0 {
		t.Shards = s.svc.Stats()
		t.Queue = s.svc.QueueDepths()
	}
	if mask&WatchTenants != 0 {
		if reg := s.svc.Quotas(); reg != nil {
			for _, u := range reg.Tenants() {
				t.Tenants = append(t.Tenants, TenantTelemetry{
					Tenant:   u.Tenant,
					Budget:   u.Budget,
					Used:     u.Used,
					Inflight: u.Inflight,
				})
			}
		}
	}
	if mask&WatchWAL != 0 {
		t.WAL = s.svc.WALStats()
	}
	if mask&WatchTraces != 0 {
		t.TracesSampled, t.TracesSlow = s.svc.TraceCounts()
	}
	if mask&WatchSLO != 0 {
		if eng := s.svc.SLO(); eng != nil {
			t.SLO = eng.States()
		}
	}
	return t
}

// writeLoop encodes and writes responses, coalescing each wakeup's batch
// into one flush via drainRounds — the server-side half of the pipelining
// bargain: under load, many responses ride one syscall.
func (s *Server) writeLoop(nc io.Writer, out <-chan Response) {
	bw := bufio.NewWriterSize(nc, 64<<10)
	var buf []byte
	var stuck error // first write/flush failure; keep draining so handlers never block
	write := func(resp Response) {
		if stuck != nil {
			return
		}
		var err error
		buf, err = AppendResponse(buf[:0], resp)
		if err == nil {
			_, err = bw.Write(buf)
		}
		if err != nil {
			stuck = err
		}
	}
	for resp := range out {
		write(resp)
		// A false return means out closed mid-drain; flush what we have
		// and let the range loop observe the close on its next receive.
		drainRounds(out, func(more Response) bool {
			write(more)
			return true
		})
		if stuck == nil {
			if err := bw.Flush(); err != nil {
				stuck = err
			}
		}
	}
	if stuck == nil {
		bw.Flush()
	}
}

// handle executes one decoded request against the service and builds the
// response, mapping typed service errors onto wire codes.
func (s *Server) handle(req Request) Response {
	resp := Response{ID: req.ID, Op: req.Op}
	fail := func(err error) Response {
		resp.Code = CodeOf(err)
		resp.Detail = err.Error()
		return resp
	}
	switch req.Op {
	case OpReserve:
		resv, err := s.svc.Admit(resd.Request{Tenant: req.Tenant, Ready: req.Ready, Q: req.Procs, Dur: req.Dur, Deadline: req.Deadline,
			ClientSend: req.Stamp, Trace: req.Traced})
		if err != nil {
			return fail(err)
		}
		resp.Resv = resv
	case OpCancel:
		if err := s.svc.Cancel(resd.ID(req.Resv)); err != nil {
			return fail(err)
		}
	case OpQuery:
		free, err := s.svc.Query(req.Ready)
		if err != nil {
			return fail(err)
		}
		resp.Free = free
	case OpSnapshot:
		snap, err := s.svc.Snapshot(req.Shard)
		if err != nil {
			return fail(err)
		}
		resp.M = snap.M()
		bps := snap.Breakpoints()
		resp.Segs = make([]Segment, len(bps))
		for i, bp := range bps {
			resp.Segs[i] = Segment{Start: bp, Free: snap.AvailableAt(bp)}
		}
	case OpPing:
		// liveness only: echo the header
	case OpStats:
		resp.Stats = s.svc.Stats()
	case OpQuotaGet:
		reg := s.svc.Quotas()
		if reg == nil {
			return fail(fmt.Errorf("%w: quotas disabled on this server", resd.ErrBadRequest))
		}
		u := reg.Usage(req.Tenant)
		resp.Quota = QuotaInfo{
			Tenant:    u.Tenant,
			Group:     u.Group,
			Mode:      reg.Mode(),
			Share:     u.Share,
			Capacity:  reg.Capacity(),
			Budget:    u.Budget,
			Used:      u.Used,
			Inflight:  u.Inflight,
			Admitted:  u.Admitted,
			Cancelled: u.Cancelled,
			Rejected:  u.Rejected,
		}
	case OpQuotaSet:
		reg := s.svc.Quotas()
		if reg == nil {
			return fail(fmt.Errorf("%w: quotas disabled on this server", resd.ErrBadRequest))
		}
		if err := reg.SetShare(req.Tenant, req.Share); err != nil {
			return fail(err)
		}
	case OpTrace:
		resp.Traces = s.svc.Traces(req.Limit)
	default:
		return fail(fmt.Errorf("%w: op %d", resd.ErrBadRequest, uint8(req.Op)))
	}
	return resp
}
