package transport

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"stellar/internal/obs"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Config wires a Manager to one local node.
type Config struct {
	// ListenAddr is the TCP address to accept peers on ("" = outbound
	// only). Peers lists addresses to dial and keep dialed.
	ListenAddr string
	Peers      []string

	// Keys is the node's validator identity; NetworkID must match on both
	// ends of every connection.
	Keys      stellarcrypto.KeyPair
	NetworkID stellarcrypto.Hash

	// QueueSize bounds each peer's outbound frame queue (default 512).
	QueueSize int

	// DialTimeout and HandshakeTimeout bound connection establishment;
	// BackoffBase/BackoffMax shape reconnect delays (exponential with
	// jitter). Zero values take defaults.
	DialTimeout      time.Duration
	HandshakeTimeout time.Duration
	BackoffBase      time.Duration
	BackoffMax       time.Duration

	// Obs receives transport_* metrics and logs; nil-safe.
	Obs *obs.Obs

	// OnPeerUp/OnPeerDown run as loop events when an authenticated peer
	// appears or disappears; typically wired to overlay.AddPeer/RemovePeer.
	OnPeerUp   func(simnet.Addr)
	OnPeerDown func(simnet.Addr)
}

// maxPeerLabels caps how many distinct peer identities the per-peer
// counter vectors will label. Every authenticated remote mints five
// counter children, and peer identities are attacker-chosen (any keypair
// that completes the handshake), so unbounded labels would let a
// connection churn adversary grow the registry — and every /metrics
// scrape — without limit. A real quorum is tens of validators; beyond
// the cap, traffic is still counted but attributed to the "other" label.
const maxPeerLabels = 64

// peerOverflowLabel aggregates peers beyond the cardinality cap.
const peerOverflowLabel = "other"

// instruments are the transport's obs counters and gauges. Traffic
// counters are labeled by remote NodeID so a fleet view can tell which
// link is slow, shedding, or flapping; connection-establishment failures
// stay aggregate (before the handshake there is no authenticated identity
// to label by).
type instruments struct {
	peers             *obs.Gauge
	handshakeFailures *obs.Counter
	dialFailures      *obs.Counter
	decodeErrors      *obs.Counter
	labelOverflows    *obs.Counter
	reconnects        *obs.CounterVec // {peer}
	framesIn          *obs.CounterVec // {peer}
	framesOut         *obs.CounterVec // {peer}
	bytesIn           *obs.CounterVec // {peer}
	bytesOut          *obs.CounterVec // {peer}
	queueSheds        *obs.CounterVec // {peer}

	labelMu    sync.Mutex
	peerLabels map[string]bool
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		peers:             reg.Gauge("transport_peers", "Authenticated peer connections currently up."),
		handshakeFailures: reg.Counter("transport_handshake_failures_total", "Connections dropped during the hello/auth handshake."),
		dialFailures:      reg.Counter("transport_dial_failures_total", "Outbound dial attempts that failed to connect."),
		decodeErrors:      reg.Counter("transport_decode_errors_total", "Inbound frames dropped because they failed to decode."),
		reconnects:        reg.CounterVec("transport_reconnects_total", "Successful dials that replaced a previously lost connection.", "peer"),
		framesIn:          reg.CounterVec("transport_frames_in_total", "Frames received from authenticated peers.", "peer"),
		framesOut:         reg.CounterVec("transport_frames_out_total", "Frames written to authenticated peers.", "peer"),
		bytesIn:           reg.CounterVec("transport_bytes_in_total", "Payload bytes received from authenticated peers.", "peer"),
		bytesOut:          reg.CounterVec("transport_bytes_out_total", "Wire bytes written to authenticated peers.", "peer"),
		queueSheds:        reg.CounterVec("transport_queue_sheds_total", "Outbound frames shed because a peer's send queue was full.", "peer"),
		labelOverflows:    reg.Counter("transport_peer_label_overflow_total", "Peer-labeled observations attributed to the \"other\" label because the distinct-peer cap was reached."),
		peerLabels:        make(map[string]bool),
	}
}

// peerLabel maps a peer identity to its metric label, admitting at most
// maxPeerLabels distinct values; later identities collapse into
// peerOverflowLabel so hostile connection churn cannot grow the registry.
func (ins *instruments) peerLabel(id simnet.Addr) string {
	s := string(id)
	ins.labelMu.Lock()
	defer ins.labelMu.Unlock()
	if ins.peerLabels[s] {
		return s
	}
	if len(ins.peerLabels) < maxPeerLabels {
		ins.peerLabels[s] = true
		return s
	}
	ins.labelOverflows.Inc()
	return peerOverflowLabel
}

// peerInstruments are one remote's resolved counter children, looked up
// once at registration so the per-frame path costs no label lookups.
type peerInstruments struct {
	framesIn, framesOut, bytesIn, bytesOut, queueSheds *obs.Counter
}

func (ins *instruments) forPeer(id simnet.Addr) *peerInstruments {
	peer := ins.peerLabel(id)
	return &peerInstruments{
		framesIn:   ins.framesIn.With(peer),
		framesOut:  ins.framesOut.With(peer),
		bytesIn:    ins.bytesIn.With(peer),
		bytesOut:   ins.bytesOut.With(peer),
		queueSheds: ins.queueSheds.With(peer),
	}
}

// Manager owns the TCP side of one node: it listens for inbound peers,
// keeps outbound dials alive with exponential backoff, runs the
// authentication handshake on every connection, and routes the loop's
// Send calls onto per-peer queues. At most one connection per peer
// identity is kept: when both sides dial simultaneously, the connection
// dialed by the smaller node ID wins and the other is dropped.
type Manager struct {
	cfg  Config
	loop *Loop
	self simnet.Addr
	log  *slog.Logger
	ins  *instruments

	// memoPkt/memoFrame remember the last packet route encoded, so a flood
	// of one packet to k peers encodes it once and queues the same
	// immutable frame k times. Touched only under the loop lock (route's
	// calling context). Holding the packet pointer keeps its address from
	// being reused while the memo is live.
	memoPkt   *overlay.Packet
	memoFrame []byte

	mu      sync.Mutex
	peers   map[simnet.Addr]*peer
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	ln      net.Listener
	dialRng *rand.Rand
}

// NewManager starts the transport: it binds the listen address (if any),
// installs itself as the loop's Send backend, and begins dialing
// configured peers. Close stops everything.
func NewManager(loop *Loop, cfg Config) (*Manager, error) {
	if cfg.Keys.Public.IsZero() {
		return nil, errors.New("transport: config needs a keypair")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 512
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	cfg.Obs = cfg.Obs.Normalize()

	m := &Manager{
		cfg:     cfg,
		loop:    loop,
		self:    simnet.Addr(cfg.Keys.Public.Address()),
		log:     obs.Component(cfg.Obs.Log, "transport"),
		ins:     newInstruments(cfg.Obs.Reg),
		peers:   make(map[simnet.Addr]*peer),
		done:    make(chan struct{}),
		dialRng: rand.New(rand.NewSource(int64(cfg.Keys.Public.Hint()[0])<<32 ^ time.Now().UnixNano())),
	}
	loop.send = m.route

	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
		m.ln = ln
		m.wg.Add(1)
		go m.acceptLoop(ln)
	}
	for _, addr := range cfg.Peers {
		m.wg.Add(1)
		go m.dialLoop(addr)
	}
	return m, nil
}

// Addr returns the bound listen address ("" when outbound-only); useful
// with ":0" listeners in tests.
func (m *Manager) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Self returns the local node ID.
func (m *Manager) Self() simnet.Addr { return m.self }

// NumPeers returns the number of authenticated peers currently up.
func (m *Manager) NumPeers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peers)
}

// Close tears down the listener, every peer, and the dial loops, then
// waits for their goroutines to exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	peers := make([]*peer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()

	if m.ln != nil {
		m.ln.Close()
	}
	for _, p := range peers {
		p.close()
	}
	m.wg.Wait()
}

// route implements the loop's Send: queue the packet's frame on the
// destination peer. Called with the loop lock held, so it must not block —
// unknown destinations and full queues are drops, not stalls.
func (m *Manager) route(from, to simnet.Addr, msg any, size int) {
	pkt, ok := msg.(*overlay.Packet)
	if !ok {
		m.log.Warn("dropping non-packet message", "to", string(to), "type", fmt.Sprintf("%T", msg))
		return
	}
	frame, err := m.frameFor(pkt, size)
	if err != nil {
		m.log.Warn("dropping unencodable packet", "to", string(to), "err", err)
		return
	}
	m.mu.Lock()
	p := m.peers[to]
	m.mu.Unlock()
	if p == nil {
		return
	}
	if shed := p.enqueue(frame); shed > 0 {
		p.ins.queueSheds.Add(float64(shed))
	}
}

// frameFor returns pkt's wire frame, encoding it only when pkt is not the
// packet of the previous call: the overlay floods one *Packet to every
// peer in consecutive Sends and never mutates a packet it has sent.
// Frames are shared between peer queues and must never be written to. size
// is the sender's estimate of the packet's wire size.
func (m *Manager) frameFor(pkt *overlay.Packet, size int) ([]byte, error) {
	if pkt == m.memoPkt {
		return m.memoFrame, nil
	}
	frame, err := encodeFrame(pkt, size)
	if err != nil {
		return nil, err
	}
	m.memoPkt, m.memoFrame = pkt, frame
	return frame, nil
}

func (m *Manager) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-m.done:
				return
			default:
			}
			m.log.Warn("accept failed", "err", err)
			continue
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.runConn(conn, false, false)
		}()
	}
}

// dialLoop keeps one configured peer address connected: dial, handshake,
// serve until the connection dies, then retry with exponential backoff
// plus jitter (reset to the base after every successful session).
func (m *Manager) dialLoop(addr string) {
	defer m.wg.Done()
	backoff := m.cfg.BackoffBase
	connected := false
	for {
		select {
		case <-m.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, m.cfg.DialTimeout)
		if err != nil {
			m.ins.dialFailures.Inc()
			m.log.Debug("dial failed", "addr", addr, "err", err, "retry_in", backoff)
			if !m.sleep(backoff) {
				return
			}
			backoff = m.nextBackoff(backoff)
			continue
		}
		if m.runConn(conn, true, connected) {
			connected = true
			backoff = m.cfg.BackoffBase
		} else if !m.sleep(backoff) {
			return
		} else {
			backoff = m.nextBackoff(backoff)
		}
	}
}

// nextBackoff doubles the delay up to the cap and adds ±25% jitter so a
// restarted network does not thunder back in lockstep.
func (m *Manager) nextBackoff(cur time.Duration) time.Duration {
	next := min(cur*2, m.cfg.BackoffMax)
	m.mu.Lock()
	jitter := time.Duration(m.dialRng.Int63n(int64(next)/2+1)) - next/4
	m.mu.Unlock()
	return next + jitter
}

func (m *Manager) sleep(d time.Duration) bool {
	select {
	case <-m.done:
		return false
	case <-time.After(d):
		return true
	}
}

// runConn authenticates one connection and, if it wins peer registration,
// serves it until it dies. Returns whether the connection authenticated
// and registered (dial loops use this to reset backoff). reconnect marks
// a dial that follows an earlier successful session, attributed to the
// authenticated identity once the handshake names it.
func (m *Manager) runConn(conn net.Conn, dialed, reconnect bool) bool {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	id, err := handshake(conn, m.cfg.Keys, m.cfg.NetworkID, m.cfg.HandshakeTimeout)
	if err != nil {
		m.ins.handshakeFailures.Inc()
		m.log.Warn("handshake failed", "remote", conn.RemoteAddr().String(), "err", err)
		conn.Close()
		return false
	}
	if reconnect {
		m.ins.reconnects.With(m.ins.peerLabel(id)).Inc()
	}
	p := newPeer(id, conn, dialed, m.cfg.QueueSize)
	p.ins = m.ins.forPeer(id)
	if !m.register(p) {
		conn.Close()
		// The identity is connected through another socket; wait for that
		// session so a losing dial loop does not immediately redial into
		// another duplicate.
		if cur := m.peerByID(id); cur != nil {
			select {
			case <-cur.done:
			case <-m.done:
			}
		}
		return true
	}
	m.log.Info("peer up", "peer", string(id), "remote", conn.RemoteAddr().String(), "dialed", dialed)
	m.loop.Run(func() {
		if m.cfg.OnPeerUp != nil {
			m.cfg.OnPeerUp(id)
		}
	})

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		p.writeLoop(func(n int) {
			p.ins.framesOut.Inc()
			p.ins.bytesOut.Add(float64(n))
		})
		p.close()
	}()

	m.readLoop(p)
	m.teardown(p)
	return true
}

// register installs p as the connection for its identity, enforcing one
// connection per peer: on a duplicate, the connection dialed by the
// smaller node ID wins. Returns false if p lost and must be closed.
func (m *Manager) register(p *peer) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	cur, dup := m.peers[p.id]
	if dup {
		// Both sides dialed each other at once. Deterministically keep the
		// connection whose dialer has the smaller ID so both ends agree.
		dialerWins := m.self < p.id
		newWins := p.dialed == dialerWins
		if !newWins {
			m.mu.Unlock()
			return false
		}
		// Replace: drop the old socket. Its teardown only removes its own
		// map entry, so installing p first is safe.
		m.peers[p.id] = p
		m.mu.Unlock()
		cur.close()
		m.ins.peers.Set(float64(m.NumPeers()))
		return true
	}
	m.peers[p.id] = p
	n := len(m.peers)
	m.mu.Unlock()
	m.ins.peers.Set(float64(n))
	return true
}

func (m *Manager) peerByID(id simnet.Addr) *peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[id]
}

// teardown removes p if it is still the registered connection for its
// identity and fires OnPeerDown; a replaced connection (lost tie-break)
// cleans up only itself.
func (m *Manager) teardown(p *peer) {
	p.close()
	m.mu.Lock()
	registered := m.peers[p.id] == p
	if registered {
		delete(m.peers, p.id)
	}
	n := len(m.peers)
	closed := m.closed
	m.mu.Unlock()
	if !registered {
		return
	}
	m.ins.peers.Set(float64(n))
	m.log.Info("peer down", "peer", string(p.id))
	if !closed {
		m.loop.Run(func() {
			if m.cfg.OnPeerDown != nil {
				m.cfg.OnPeerDown(p.id)
			}
		})
	}
}

// readLoop decodes inbound frames and delivers packets to the local node
// as loop events; it returns when the connection fails or is closed.
func (m *Manager) readLoop(p *peer) {
	r := bufio.NewReaderSize(p.conn, readBufferSize)
	for {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		p.ins.framesIn.Inc()
		p.ins.bytesIn.Add(float64(len(payload)))
		if typ != FramePacket {
			m.ins.decodeErrors.Inc()
			m.log.Warn("unexpected frame type after handshake", "peer", string(p.id), "type", typ.String())
			return
		}
		pkt, err := DecodePacket(payload)
		if err != nil {
			m.ins.decodeErrors.Inc()
			m.log.Warn("dropping undecodable packet", "peer", string(p.id), "err", err)
			continue
		}
		m.loop.deliver(p.id, pkt, len(payload))
	}
}
