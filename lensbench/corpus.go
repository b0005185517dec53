package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"gamelens/internal/gamesim"
	"gamelens/internal/packet"
	"gamelens/internal/trace"
)

// corpus is a workload's input, synthesized once during set-up: raw
// Ethernet frames in capture order, packed into one arena mapped outside
// the Go heap (so the corpus neither inflates the collector's pacing nor
// shows up in state_mb), plus the generator's ground truth.
//
// A run replays the corpus in passes instead of holding a full-length
// capture: pass k shifts every timestamp by k*span, so flows that cross
// the pass boundary continue in packet time. When convs is non-zero every
// pass also rewrites the client address of each conversation (one gaming
// session or background tuple) to a fresh one, so each pass opens new
// sessions without synthesizing new frames.
type corpus struct {
	arena []byte
	refs  []frameRef
	base  time.Time
	span  time.Duration

	convs int      // conversations rewritten per pass (0: fixed tuples)
	cur   []uint32 // client address each conversation's frames carry now

	// flows are the gaming sessions, in conversation order.
	flows []gamingFlow
}

// frameRef locates one frame in the arena and, on rewritten corpora,
// which conversation it belongs to and which IP address is the client's.
type frameRef struct {
	t         time.Duration // offset within the pass
	off       uint32
	n         uint16
	conv      uint16
	clientDst bool
}

// gamingFlow is the ground truth of one gaming session in the corpus.
type gamingFlow struct {
	title   gamesim.TitleID
	records []trace.Pkt // payload records as the pipeline sees them, pass-relative
}

// ts returns the capture timestamp of ref in pass p.
func (c *corpus) ts(p int, ref *frameRef) time.Time {
	return c.base.Add(time.Duration(p)*c.span + ref.t)
}

// frame returns ref's bytes.
func (c *corpus) frame(ref *frameRef) []byte {
	return c.arena[ref.off : ref.off+uint32(ref.n)]
}

// replay hands every stride-th frame of pass p to handle, in capture
// order, after rewriting client tuples for the pass if the corpus has
// conversations.
func (c *corpus) replay(p, stride int, handle func(ts time.Time, frame []byte)) {
	if c.convs == 0 {
		for i := 0; i < len(c.refs); i += stride {
			ref := &c.refs[i]
			handle(c.ts(p, ref), c.frame(ref))
		}
		return
	}
	deltas := c.passDeltas(p)
	for i := 0; i < len(c.refs); i += stride {
		ref := &c.refs[i]
		fr := c.frame(ref)
		rewriteClient(fr, ref.clientDst, &deltas[ref.conv])
		handle(c.ts(p, ref), fr)
	}
	for i, d := range deltas {
		c.cur[i] = d.addr
	}
}

// frames counts the frames a stride-th replay of one pass hands in.
func (c *corpus) frames(stride int) int { return (len(c.refs) + stride - 1) / stride }

// clientAddr is the client address conversation conv uses in pass p:
// consecutive addresses in 100.64.0.0/10, distinct across passes.
func (c *corpus) clientAddr(conv, p int) uint32 {
	return 100<<24 | 64<<16 + uint32(p*c.convs+conv)
}

// convOf maps a client address back to its conversation.
func (c *corpus) convOf(addr netip.Addr) int {
	a := addr.As4()
	return int(binary.BigEndian.Uint32(a[:])-(100<<24|64<<16)) % c.convs
}

// addrDelta is one conversation's address rewrite for a pass: the new
// address and the RFC 1624 ones-complement delta it applies to the IPv4
// header and UDP checksums.
type addrDelta struct {
	addr  uint32
	delta uint32
}

func (c *corpus) passDeltas(p int) []addrDelta {
	ds := make([]addrDelta, c.convs)
	for i := range ds {
		old, new := c.cur[i], c.clientAddr(i, p)
		ds[i] = addrDelta{addr: new, delta: uint32(^uint16(old>>16)) + uint32(^uint16(old)) + new>>16 + new&0xffff}
	}
	return ds
}

// rewriteClient replaces a frame's client address and patches both
// checksums incrementally, so the frame stays valid on the wire.
func rewriteClient(fr []byte, clientDst bool, d *addrDelta) {
	ip := fr[packet.EthernetHeaderLen:]
	at := 12
	if clientDst {
		at = 16
	}
	binary.BigEndian.PutUint32(ip[at:], d.addr)
	binary.BigEndian.PutUint16(ip[10:], csumAdjust(binary.BigEndian.Uint16(ip[10:]), d.delta))
	udp := ip[packet.IPv4HeaderLen:]
	if sum := binary.BigEndian.Uint16(udp[6:]); sum != 0 {
		if sum = csumAdjust(sum, d.delta); sum == 0 {
			sum = 0xffff
		}
		binary.BigEndian.PutUint16(udp[6:], sum)
	}
}

// csumAdjust applies an RFC 1624 delta to a ones-complement checksum.
func csumAdjust(sum uint16, delta uint32) uint16 {
	s := uint32(^sum) + delta
	for s > 0xffff {
		s = s>>16 + s&0xffff
	}
	return ^uint16(s)
}

// --- building ---

// corpusBuilder collects per-flow packet records and lays their frames
// out in one arena in global capture order.
type corpusBuilder struct {
	flows []builderFlow
	udp   []byte // the non-RTP frame addUDP's flows build into, one at a time
}

// builderFlow is one conversation's records and the function that encodes
// them; Down frames travel server to client.
type builderFlow struct {
	records []trace.Pkt // pass-relative, sorted by T
	build   func(p trace.Pkt) []byte
	conv    int
}

// addGaming adds an RTP gaming stream built by the generator's own frame
// builder.
func (b *corpusBuilder) addGaming(records []trace.Pkt, ep gamesim.Endpoints, conv int) {
	fb := gamesim.NewFrameBuilder(ep)
	b.flows = append(b.flows, builderFlow{records: records, build: fb.Build, conv: conv})
}

// zeroPayload is every non-RTP payload: its first byte is zero, which no
// RTP header has.
var zeroPayload [gamesim.MaxPayload]byte

// addUDP adds a non-RTP UDP conversation between server and client.
func (b *corpusBuilder) addUDP(records []trace.Pkt, server, client netip.Addr, sport, cport uint16, conv int) {
	build := func(p trace.Pkt) []byte {
		eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
		ip := packet.IPv4{TTL: 60, Protocol: packet.ProtoUDP, Src: server, Dst: client}
		udp := packet.UDP{SrcPort: sport, DstPort: cport}
		if p.Dir == trace.Up {
			ip.Src, ip.Dst = client, server
			udp.SrcPort, udp.DstPort = cport, sport
		}
		seg := udp.AppendTo(nil, zeroPayload[:p.Size], ip.Src, ip.Dst)
		b.udp = ip.AppendTo(eth.AppendTo(b.udp[:0]), seg)
		return b.udp
	}
	b.flows = append(b.flows, builderFlow{records: records, build: build, conv: conv})
}

// finish merges every flow's frames into capture order (ties to the lower
// flow index) and copies them into an anonymous mapping.
func (b *corpusBuilder) finish(base time.Time, span time.Duration) (*corpus, error) {
	type entry struct {
		t    time.Duration
		flow int32
		rec  int32
	}
	var entries []entry
	for fi, f := range b.flows {
		for ri, r := range f.records {
			entries = append(entries, entry{r.T, int32(fi), int32(ri)})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].t != entries[j].t {
			return entries[i].t < entries[j].t
		}
		if entries[i].flow != entries[j].flow {
			return entries[i].flow < entries[j].flow
		}
		return entries[i].rec < entries[j].rec
	})
	// Reserve the worst case; untouched pages of an anonymous mapping
	// cost no memory.
	maxFrame := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + packet.RTPHeaderLen + gamesim.MaxPayload
	arena, err := syscall.Mmap(-1, 0, len(entries)*maxFrame, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping corpus arena: %w", err)
	}
	c := &corpus{refs: make([]frameRef, len(entries)), base: base, span: span}
	off := 0
	for i, e := range entries {
		f := &b.flows[e.flow]
		r := f.records[e.rec]
		fr := f.build(r)
		copy(arena[off:], fr)
		c.refs[i] = frameRef{t: e.t, off: uint32(off), n: uint16(len(fr)), conv: uint16(f.conv), clientDst: r.Dir == trace.Down}
		off += len(fr)
	}
	c.arena = arena[:off]
	return c, nil
}

// release unmaps the arena.
func (c *corpus) release() {
	if c.arena != nil {
		syscall.Munmap(c.arena[:cap(c.arena)])
		c.arena = nil
	}
}

// bytes is the corpus footprint: arena plus frame index.
func (c *corpus) bytes() int64 {
	return int64(len(c.arena)) + int64(len(c.refs))*int64(unsafe.Sizeof(frameRef{}))
}

// --- workloads ---

// corpusBase anchors packet time for the packet workloads.
var corpusBase = time.Date(2026, 8, 3, 18, 0, 0, 0, time.UTC)

// Steady sizing: steadyFlows long sessions, cut to a post-launch window
// holding about steadyFrames frames (the pass), replayed back to back.
const (
	steadyFlows  = 8
	steadyFrames = 64 << 10
)

// steadyLead is how much of each launch the steady workload replays once,
// untimed, before its gameplay passes: the filter's verdict and the
// title decision (N = 5 s, plus the 1 s the pipeline waits) see the real
// launch, as a tap would, so the sessions carry their titles' QoE demand.
const steadyLead = 6500 * time.Millisecond

// benchConfig is session i's client: the lab profiles in turn, all at
// 1080p60. With the configurations and the title mix fixed, the seed
// varies each session's stage timeline and traffic but not the packet
// rate and size mix that set the per-frame cost.
func benchConfig(i int) gamesim.ClientConfig {
	p := gamesim.LabProfiles()[i%len(gamesim.LabProfiles())]
	return gamesim.ClientConfig{Device: p.Device, OS: p.OS, Software: p.Software, Resolution: gamesim.ResFHD, FPS: 60}
}

// buildSteady synthesizes the steady corpora: flows sessions of the most
// popular titles in catalog order, one per lab profile; the seed drives
// each session's stage timeline and traffic. lead holds the first steadyLead of
// each launch; c holds one gameplay window cut from every session
// starting five seconds after the latest launch stage ends, whole 100 ms
// slots long and just long enough to hold frames frames whatever the
// configurations' bitrates. c's passes continue the flows lead opened.
func buildSteady(seed int64, flows, frames int) (lead, c *corpus, err error) {
	var sessions []*gamesim.Session
	var from time.Duration
	for i := 0; i < flows; i++ {
		id := gamesim.TitleID(i % int(gamesim.NumTitles))
		s := gamesim.Generate(id, benchConfig(i), gamesim.LabNetwork(), seed*7919+int64(i)*131,
			gamesim.Options{SessionLength: 4 * time.Minute})
		sessions = append(sessions, s)
		if end := s.LaunchEnd(); end > from {
			from = end
		}
	}
	from = from.Truncate(time.Second) + 5*time.Second
	// Grow the window slot by slot until it holds frames frames.
	const maxSpan = 60 * time.Second
	expanded := make([][]trace.Pkt, len(sessions))
	perSlot := make([]int, maxSpan/trace.SlotDuration)
	for i, s := range sessions {
		expanded[i] = s.ExpandPackets(from + maxSpan)
		for _, p := range expanded[i] {
			if p.T >= from {
				perSlot[(p.T-from)/trace.SlotDuration]++
			}
		}
	}
	span, n := time.Duration(0), 0
	for _, k := range perSlot {
		if n >= frames {
			break
		}
		n += k
		span += trace.SlotDuration
	}
	var lb, b corpusBuilder
	var truth []gamingFlow
	for i, pk := range expanded {
		var head, recs []trace.Pkt
		for _, p := range pk {
			switch {
			case p.T < steadyLead:
				head = append(head, p)
			case p.T >= from && p.T < from+span:
				p.T -= from
				recs = append(recs, p)
			}
		}
		lb.addGaming(head, gamesim.FlowEndpoints(i), 0)
		b.addGaming(recs, gamesim.FlowEndpoints(i), 0)
		truth = append(truth, gamingFlow{title: sessions[i].Title.ID, records: recs})
	}
	if lead, err = lb.finish(corpusBase, steadyLead); err != nil {
		return nil, nil, err
	}
	if c, err = b.finish(corpusBase.Add(steadyLead), span); err != nil {
		lead.release()
		return nil, nil, err
	}
	c.flows = truth
	return lead, c, nil
}

// Churn sizing: per pass, churnSessions short cloud-gaming sessions whose
// starts spread over the pass, each the first churnSessionLen of a launch
// (past the filter's 200-packet verdict and the 5 s + 1 s title decision),
// plus non-gaming UDP background. No source gives a gateway's traffic
// mix, so these are assumptions sized to what the workload is for:
// non-gaming frames slightly outnumber gaming ones, and the filter table
// holds thousands of Pending and Rejected entries for every live session,
// so the table's growth and expiry, not the Gaming fast path, carry the
// filter's weight. Every catalog title gets one session per pass (not
// Table 1's popularity), so each title's decision is costed.
const (
	churnPass       = 30 * time.Second
	churnSessions   = int(gamesim.NumTitles)
	churnSessionLen = 7 * time.Second
	churnPending    = 14000 // small-packet tuples per pass that stay Pending
	churnBulk       = 48    // bulk non-RTP flows per pass that get Rejected
)

// buildChurn synthesizes the churn corpus: one session of every catalog
// title per pass, started in a seeded order, clients cycling through the
// lab profiles (benchConfig).
func buildChurn(seed int64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{convs: churnSessions + churnPending + churnBulk}
	c.cur = make([]uint32, c.convs)
	for i := range c.cur {
		c.cur[i] = c.clientAddr(i, 0)
	}
	addr := func(conv int) netip.Addr {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], c.cur[conv])
		return netip.AddrFrom4(a)
	}
	var b corpusBuilder
	order := rng.Perm(int(gamesim.NumTitles))
	stagger := (churnPass - churnSessionLen) / time.Duration(churnSessions)
	conv := 0
	for i := 0; i < churnSessions; i++ {
		id := gamesim.TitleID(order[i%len(order)])
		s := gamesim.Generate(id, benchConfig(i), gamesim.LabNetwork(), seed*7919+int64(i)*131,
			gamesim.Options{SessionLength: 2 * time.Minute})
		start := time.Duration(i)*stagger + time.Duration(rng.Int63n(int64(stagger/2)))
		var recs []trace.Pkt
		for _, p := range s.ExpandPackets(churnSessionLen) {
			p.T += start
			recs = append(recs, p)
		}
		ep := gamesim.FlowEndpoints(i)
		ep.ClientAddr = addr(conv)
		b.addGaming(recs, ep, conv)
		c.flows = append(c.flows, gamingFlow{title: id, records: recs})
		conv++
	}
	servers := []struct {
		addr netip.Addr
		port uint16
	}{
		{netip.MustParseAddr("198.51.100.53"), 53},
		{netip.MustParseAddr("198.51.100.123"), 123},
		{netip.MustParseAddr("198.51.100.34"), 3478},
	}
	for i := 0; i < churnPending; i++ {
		srv := servers[i%len(servers)]
		start := time.Duration(rng.Int63n(int64(churnPass - time.Second)))
		var recs []trace.Pkt
		for k, n := 0, 1+rng.Intn(6); k < n; k++ {
			dir := trace.Up
			if k%2 == 1 {
				dir = trace.Down
			}
			recs = append(recs, trace.Pkt{T: start + time.Duration(k)*40*time.Millisecond, Dir: dir, Size: 40 + rng.Intn(160)})
		}
		b.addUDP(recs, srv.addr, addr(conv), srv.port, uint16(20000+rng.Intn(40000)), conv)
		conv++
	}
	bulk := netip.MustParseAddr("198.51.100.80")
	for i := 0; i < churnBulk; i++ {
		start := time.Duration(rng.Int63n(int64(churnPass - 3*time.Second)))
		var recs []trace.Pkt
		for k := 0; k < 440; k++ {
			dir, size := trace.Down, 1100+rng.Intn(300)
			if k%11 == 10 {
				dir, size = trace.Up, 60+rng.Intn(40)
			}
			recs = append(recs, trace.Pkt{T: start + time.Duration(k)*5*time.Millisecond, Dir: dir, Size: size})
		}
		b.addUDP(recs, bulk, addr(conv), 443, uint16(20000+rng.Intn(40000)), conv)
		conv++
	}
	built, err := b.finish(corpusBase, churnPass)
	if err != nil {
		return nil, err
	}
	built.convs, built.cur, built.flows = c.convs, c.cur, c.flows
	return built, nil
}
