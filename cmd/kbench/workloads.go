package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/pkg/safelinux"
)

// workload is one benchmark input: an op mix plus the module stack it
// runs on. The stack is part of the workload, so a change to one stack
// must leave the other stack's four workloads flat.
type workload struct {
	name   string
	family string
	safe   bool
	why    string
}

// Workload families.
const (
	famHot   = "fs-hot"
	famSync  = "fs-sync"
	famChurn = "fs-churn"
	famNet   = "net-rr"
)

var workloads = []workload{
	{"fs-hot.legacy", famHot, false, "cached pread/pwrite/stat on extlike: VFS dispatch, compartment gate and the fs in-memory path dominate"},
	{"fs-hot.safe", famHot, true, "cached pread/pwrite/stat on safefs: the gate and the safe module's in-memory path dominate"},
	{"fs-sync.legacy", famSync, false, "pwrite+fsync on extlike: journal commit, kio submission and device flushes dominate"},
	{"fs-sync.safe", famSync, true, "pwrite+fsync on safefs: the log append and its flush dominate"},
	{"fs-churn.legacy", famChurn, false, "unlink+create+write over 8192 paths on extlike: more paths than the dcache holds, allocator and journal"},
	{"fs-churn.safe", famChurn, true, "unlink+create+write over 8192 paths on safefs: namespace ops, log and full-state checkpoints"},
	{"net-rr.legacy", famNet, false, "request/response over 256 connections on the legacy TCP stack: socket, TCP, demux and link per packet"},
	{"net-rr.safe", famNet, true, "request/response over 256 connections on safetcp: the safe transport per packet, no fs layer"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Data-set sizes. -scale multiplies the file and connection counts
// (fs-churn's directories follow its file count) and the warm-up op
// counts; sizes per item never change.
const (
	hotFiles = 64
	hotSize  = 8 << 10
	hotRead  = 4 << 10
	hotWrite = 512

	syncFiles = 64
	syncSize  = 16 << 10
	syncWrite = 4 << 10

	// 64 × 128 = 8192 files plus 64 directories: twice the 4096-entry
	// dcache. 128 entries keep each extlike directory far below its
	// max-file-size limit, and 256-byte files keep safefs's full-state
	// checkpoint (~2.3 MiB) inside its 15%-of-device region.
	churnDirs   = 64
	churnPerDir = 128
	churnSize   = 256

	netConns    = 256
	netReq      = 64
	netSmall    = 64
	netBig      = 16 << 10
	netPort     = 80
	stepBudget  = 100000 // sim steps one op may take before it fails ETIMEDOUT
	netReplaceP = 100    // 1 op in netReplaceP replaces its connection first
)

// diskBlocks sizes the root device per family in 512-byte blocks,
// scaled with the data set down to the 4096-block kernel default.
func diskBlocks(family string, scale float64) uint64 {
	blocks := 32768
	if family == famChurn {
		blocks = 65536
	}
	return uint64(max(4096, scaled(blocks, scale)))
}

// warmOps is how many ops run before timing; they count toward setup_s.
// The counts make each set-up last a few tenths of a second, long
// enough to time steadily.
func warmOps(family string) int {
	switch family {
	case famHot:
		return 40000
	case famSync:
		return 4000
	case famChurn:
		return 1000
	default:
		return 8000
	}
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale+0.5))
}

// errnoError is a kernel call that returned an error: the op counts as
// failed. Any other error from a driver is a model mismatch.
type errnoError struct {
	call  string
	errno kbase.Errno
}

func (e *errnoError) Error() string { return fmt.Sprintf("%s: errno %d", e.call, int(e.errno)) }

func callErr(call string, errno kbase.Errno) error { return &errnoError{call, errno} }

// driver runs one workload family against a booted kernel. An op is
// three phases so that op latency covers only the kernel calls: next
// draws the op from the seeded stream, exec issues its calls, check
// compares the results with the driver's model of the kernel state.
type driver interface {
	populate() error
	next()
	exec() error
	check() error
	// verify compares the whole final kernel state with the model.
	verify() error
}

// env is one booted kernel and the benchmark state shared by drivers.
type env struct {
	k      *safelinux.Kernel
	task   *kbase.Task
	drv    driver
	rng    *rand.Rand
	tr     *tracer
	digest uint64
	steps  uint64 // Sim.Step calls issued by the benchmark
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// mix folds one generated value into the op-stream digest.
func (e *env) mix(v uint64) {
	e.digest ^= v
	e.digest *= fnvPrime
}

// fill writes the deterministic content named by seed into b.
func fill(b []byte, seed uint64) {
	r := rand.NewPCG(seed, 0x6b62656e6368)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	for v := r.Uint64(); i < len(b); i++ {
		b[i] = byte(v)
		v >>= 8
	}
}

func newDriver(family string, e *env, scale float64) driver {
	switch family {
	case famHot:
		return &fsHot{env: e, files: make([]file, scaled(hotFiles, scale)),
			buf: make([]byte, hotRead), wbuf: make([]byte, hotWrite)}
	case famSync:
		return &fsSync{env: e, files: make([]file, scaled(syncFiles, scale)),
			wbuf: make([]byte, syncWrite)}
	case famChurn:
		n := scaled(churnDirs*churnPerDir, scale)
		return &fsChurn{env: e, dirs: (n + churnPerDir - 1) / churnPerDir,
			paths: make([]string, n), seeds: make([]uint64, n),
			buf: make([]byte, churnSize), rbuf: make([]byte, churnSize)}
	default:
		return &netRR{env: e, conns: make([]conn, scaled(netConns, scale)),
			req: make([]byte, netReq), sbuf: make([]byte, netReq),
			resp: make([]byte, netBig), rbuf: make([]byte, netBig)}
	}
}

// --- file workloads ---

// file is one open file the driver holds and its modelled content.
type file struct {
	path string
	fd   int
	data []byte
}

// createFiles makes dir and one open file per slot in files, each
// written with size bytes of seeded content.
func (e *env) createFiles(dir string, files []file, size int) error {
	if err := e.k.VFS.Mkdir(e.task, dir); err != kbase.EOK {
		return callErr("mkdir", err)
	}
	for i := range files {
		f := &files[i]
		f.path = fmt.Sprintf("%s/f%02d", dir, i)
		f.data = make([]byte, size)
		fill(f.data, e.rng.Uint64())
		fd, err := e.k.VFS.Open(e.task, f.path, vfs.ORdWr|vfs.OCreate|vfs.OExcl)
		if err != kbase.EOK {
			return callErr("open", err)
		}
		f.fd = fd
		if n, err := e.k.VFS.Pwrite(e.task, fd, f.data, 0); err != kbase.EOK || n != size {
			return fmt.Errorf("populate %s: pwrite = %d, errno %d", f.path, n, int(err))
		}
	}
	return nil
}

// verifyFiles reads every file back whole, compares it with the model
// and closes it.
func (e *env) verifyFiles(files []file) error {
	for _, f := range files {
		buf := make([]byte, len(f.data))
		n, err := e.k.VFS.Pread(e.task, f.fd, buf, 0)
		if err != kbase.EOK {
			return callErr("pread "+f.path, err)
		}
		if n != len(f.data) || !bytes.Equal(buf, f.data) {
			return fmt.Errorf("verify %s: content differs from the model (%d bytes read)", f.path, n)
		}
		if err := e.k.VFS.CloseAs(e.task, f.fd); err != kbase.EOK {
			return callErr("close "+f.path, err)
		}
	}
	return nil
}

const (
	kindRead = iota
	kindWrite
	kindStat
)

// fsHot: 64 files × 8 KiB held open; 70% pread 4 KiB, 15% pwrite
// 512 B, 15% stat, uniformly over the files.
type fsHot struct {
	*env
	files []file
	buf   []byte
	wbuf  []byte

	kind int
	f    *file
	off  int64
	n    int
	st   vfs.Stat
}

func (d *fsHot) populate() error { return d.createFiles("/hot", d.files, hotSize) }

func (d *fsHot) next() {
	r := d.rng.IntN(100)
	fi := d.rng.IntN(len(d.files))
	d.f = &d.files[fi]
	d.off = 0
	switch {
	case r < 70:
		d.kind = kindRead
		d.off = int64(d.rng.IntN(hotSize - hotRead + 1))
	case r < 85:
		d.kind = kindWrite
		d.off = int64(d.rng.IntN(hotSize - hotWrite + 1))
		seed := d.rng.Uint64()
		fill(d.wbuf, seed)
		d.mix(seed)
	default:
		d.kind = kindStat
	}
	d.mix(uint64(d.kind)<<56 | uint64(fi)<<32 | uint64(d.off))
}

func (d *fsHot) exec() error {
	var err kbase.Errno
	switch d.kind {
	case kindRead:
		s := d.tr.begin()
		d.n, err = d.k.VFS.Pread(d.task, d.f.fd, d.buf, d.off)
		d.tr.end(spanPread, s)
		if err != kbase.EOK {
			return callErr("pread", err)
		}
	case kindWrite:
		s := d.tr.begin()
		d.n, err = d.k.VFS.Pwrite(d.task, d.f.fd, d.wbuf, d.off)
		d.tr.end(spanPwrite, s)
		if err != kbase.EOK {
			return callErr("pwrite", err)
		}
	default:
		s := d.tr.begin()
		d.st, err = d.k.VFS.Stat(d.task, d.f.path)
		d.tr.end(spanStat, s)
		if err != kbase.EOK {
			return callErr("stat", err)
		}
	}
	return nil
}

func (d *fsHot) check() error {
	switch d.kind {
	case kindRead:
		if d.n != hotRead || !bytes.Equal(d.buf, d.f.data[d.off:d.off+hotRead]) {
			return fmt.Errorf("pread %s@%d: %d bytes, content differs from the model", d.f.path, d.off, d.n)
		}
	case kindWrite:
		if d.n != hotWrite {
			return fmt.Errorf("pwrite %s@%d: wrote %d of %d bytes", d.f.path, d.off, d.n, hotWrite)
		}
		copy(d.f.data[d.off:], d.wbuf)
	default:
		if d.st.Size != hotSize || d.st.Mode.IsDir() {
			return fmt.Errorf("stat %s: size %d, want a %d-byte file", d.f.path, d.st.Size, hotSize)
		}
	}
	return nil
}

func (d *fsHot) verify() error { return d.verifyFiles(d.files) }

// fsSync: 64 open files of 16 KiB; one op overwrites one aligned
// 4 KiB slot and fsyncs the file — one durable write.
type fsSync struct {
	*env
	files []file
	wbuf  []byte

	f   *file
	off int64
	n   int
}

func (d *fsSync) populate() error {
	if err := d.createFiles("/sync", d.files, syncSize); err != nil {
		return err
	}
	for _, f := range d.files {
		if err := d.k.VFS.Fsync(d.task, f.fd); err != kbase.EOK {
			return callErr("fsync", err)
		}
	}
	return nil
}

func (d *fsSync) next() {
	fi := d.rng.IntN(len(d.files))
	d.f = &d.files[fi]
	d.off = int64(d.rng.IntN(syncSize/syncWrite) * syncWrite)
	seed := d.rng.Uint64()
	fill(d.wbuf, seed)
	d.mix(uint64(fi)<<32 | uint64(d.off))
	d.mix(seed)
}

func (d *fsSync) exec() error {
	s := d.tr.begin()
	n, err := d.k.VFS.Pwrite(d.task, d.f.fd, d.wbuf, d.off)
	d.tr.end(spanPwrite, s)
	d.n = n
	if err != kbase.EOK {
		return callErr("pwrite", err)
	}
	s = d.tr.begin()
	err = d.k.VFS.Fsync(d.task, d.f.fd)
	d.tr.end(spanFsync, s)
	if err != kbase.EOK {
		return callErr("fsync", err)
	}
	return nil
}

func (d *fsSync) check() error {
	if d.n != syncWrite {
		return fmt.Errorf("pwrite %s@%d: wrote %d of %d bytes", d.f.path, d.off, d.n, syncWrite)
	}
	copy(d.f.data[d.off:], d.wbuf)
	return nil
}

func (d *fsSync) verify() error { return d.verifyFiles(d.files) }

// fsChurn: 8192 files of 256 B over 64 directories; one op replaces a
// random file: unlink, open(O_CREAT|O_EXCL), pwrite, close.
type fsChurn struct {
	*env
	dirs  int
	paths []string
	seeds []uint64 // content seed of each file's current incarnation
	buf   []byte
	rbuf  []byte

	f    int
	seed uint64
	n    int
}

func (d *fsChurn) populate() error {
	for i := 0; i < d.dirs; i++ {
		if err := d.k.VFS.Mkdir(d.task, fmt.Sprintf("/d%02d", i)); err != kbase.EOK {
			return callErr("mkdir", err)
		}
	}
	for i := range d.paths {
		d.paths[i] = fmt.Sprintf("/d%02d/f%03d", i/churnPerDir, i%churnPerDir)
		d.seeds[i] = d.rng.Uint64()
		fill(d.buf, d.seeds[i])
		if err := d.create(d.paths[i]); err != nil {
			return err
		}
		if d.n != churnSize {
			return fmt.Errorf("populate %s: wrote %d of %d bytes", d.paths[i], d.n, churnSize)
		}
	}
	return nil
}

// create makes path with d.buf as content and closes it.
func (d *fsChurn) create(path string) error {
	s := d.tr.begin()
	fd, err := d.k.VFS.Open(d.task, path, vfs.OWrOnly|vfs.OCreate|vfs.OExcl)
	d.tr.end(spanOpen, s)
	if err != kbase.EOK {
		return callErr("open", err)
	}
	s = d.tr.begin()
	d.n, err = d.k.VFS.Pwrite(d.task, fd, d.buf, 0)
	d.tr.end(spanPwrite, s)
	if err != kbase.EOK {
		_ = d.k.VFS.CloseAs(d.task, fd) // the pwrite errno is the one reported
		return callErr("pwrite", err)
	}
	s = d.tr.begin()
	err = d.k.VFS.CloseAs(d.task, fd)
	d.tr.end(spanClose, s)
	if err != kbase.EOK {
		return callErr("close", err)
	}
	return nil
}

func (d *fsChurn) next() {
	d.f = d.rng.IntN(len(d.paths))
	d.seed = d.rng.Uint64()
	fill(d.buf, d.seed)
	d.mix(uint64(d.f))
	d.mix(d.seed)
}

func (d *fsChurn) exec() error {
	s := d.tr.begin()
	err := d.k.VFS.Unlink(d.task, d.paths[d.f])
	d.tr.end(spanUnlink, s)
	if err != kbase.EOK {
		return callErr("unlink", err)
	}
	return d.create(d.paths[d.f])
}

func (d *fsChurn) check() error {
	if d.n != churnSize {
		return fmt.Errorf("pwrite %s: wrote %d of %d bytes", d.paths[d.f], d.n, churnSize)
	}
	d.seeds[d.f] = d.seed
	return nil
}

func (d *fsChurn) verify() error {
	for i, path := range d.paths {
		st, err := d.k.VFS.Stat(d.task, path)
		if err != kbase.EOK {
			return callErr("stat "+path, err)
		}
		if st.Size != churnSize {
			return fmt.Errorf("verify %s: size %d, want %d", path, st.Size, churnSize)
		}
		fd, err := d.k.VFS.Open(d.task, path, vfs.ORdOnly)
		if err != kbase.EOK {
			return callErr("open "+path, err)
		}
		n, err := d.k.VFS.Pread(d.task, fd, d.rbuf, 0)
		_ = d.k.VFS.CloseAs(d.task, fd) // read-only fd: nothing buffered to lose
		if err != kbase.EOK {
			return callErr("pread "+path, err)
		}
		fill(d.buf, d.seeds[i])
		if n != churnSize || !bytes.Equal(d.rbuf, d.buf) {
			return fmt.Errorf("verify %s: content differs from the model (%d bytes read)", path, n)
		}
	}
	return nil
}

// --- network workload ---

// stream is the connection surface both transports share
// (*net.Socket and *safetcp.Conn).
type stream interface {
	Send(data []byte) kbase.Errno
	Recv(buf []byte) (int, kbase.Errno)
	Close() kbase.Errno
	Established() bool
}

// conn is one persistent client/server connection pair.
type conn struct{ cl, srv stream }

func retransmits(s stream) uint64 {
	switch c := s.(type) {
	case *net.Socket:
		if tcb, ok := c.TCPInfo(); ok {
			return tcb.Retransmits
		}
	case *safetcp.Conn:
		return c.Retransmits
	}
	return 0
}

// netRR: 256 persistent connections from host A to host B; one op
// sends a 64-byte request, the server answers 64 B (90%) or 16 KiB
// (10%), and 1% of ops first replace their connection.
type netRR struct {
	*env
	conns  []conn
	dial   func() (stream, kbase.Errno)
	accept func() (stream, kbase.Errno)
	closed uint64 // retransmits of connections already replaced

	req, sbuf  []byte
	resp, rbuf []byte

	c       int
	replace bool
	respLen int
}

func (d *netRR) populate() error {
	hA, hB := d.k.Hosts()
	if d.k.TCPSafe() {
		epA, epB := d.k.SafeEndpoints()
		l, err := epB.Listen(netPort)
		if err != kbase.EOK {
			return callErr("listen", err)
		}
		d.dial = func() (stream, kbase.Errno) {
			c, err := epA.Connect(hB.Addr(), netPort)
			if err != kbase.EOK {
				return nil, err
			}
			return c, kbase.EOK
		}
		d.accept = func() (stream, kbase.Errno) {
			c, err := l.Accept()
			if err != kbase.EOK {
				return nil, err
			}
			return c, kbase.EOK
		}
	} else {
		l, err := hB.ListenTCP(netPort)
		if err != kbase.EOK {
			return callErr("listen", err)
		}
		d.dial = func() (stream, kbase.Errno) {
			s, err := hA.ConnectTCP(hB.Addr(), netPort)
			if err != kbase.EOK {
				return nil, err
			}
			return s, kbase.EOK
		}
		d.accept = func() (stream, kbase.Errno) {
			s, err := l.Accept()
			if err != kbase.EOK {
				return nil, err
			}
			return s, kbase.EOK
		}
	}
	// One connection at a time: a burst of SYNs would overflow the
	// bounded accept backlog.
	for i := range d.conns {
		c, err := d.connect()
		if err != nil {
			return err
		}
		d.conns[i] = c
	}
	return nil
}

func (d *netRR) step() {
	s := d.tr.begin()
	d.k.Sim.Step()
	d.tr.end(spanStep, s)
	d.steps++
}

// connect dials the server and steps the simulation until the
// handshake completes and the listener hands out the server end.
func (d *netRR) connect() (conn, error) {
	s := d.tr.begin()
	cl, err := d.dial()
	d.tr.end(spanConnect, s)
	if err != kbase.EOK {
		return conn{}, callErr("connect", err)
	}
	var srv stream
	for i := 0; ; i++ {
		if srv == nil {
			s := d.tr.begin()
			c, err := d.accept()
			d.tr.end(spanAccept, s)
			switch err {
			case kbase.EOK:
				srv = c
			case kbase.EAGAIN:
			default:
				return conn{}, callErr("accept", err)
			}
		}
		if srv != nil && cl.Established() {
			return conn{cl, srv}, nil
		}
		if i == stepBudget {
			return conn{}, callErr("connect", kbase.ETIMEDOUT)
		}
		d.step()
	}
}

// retransmits totals retransmissions on both ends of every connection
// the workload has used.
func (d *netRR) retransmits() uint64 {
	n := d.closed
	for _, c := range d.conns {
		n += retransmits(c.cl) + retransmits(c.srv)
	}
	return n
}

func (d *netRR) next() {
	d.c = d.rng.IntN(len(d.conns))
	d.replace = d.rng.IntN(netReplaceP) == 0
	d.respLen = netSmall
	if d.rng.IntN(10) == 0 {
		d.respLen = netBig
	}
	seed := d.rng.Uint64()
	fill(d.req, seed)
	fill(d.resp[:d.respLen], seed+1)
	var r uint64
	if d.replace {
		r = 1
	}
	d.mix(uint64(d.c)<<40 | r<<32 | uint64(d.respLen))
	d.mix(seed)
}

// recvInto reads from s into buf[*got:], advancing *got, until buf is
// full or the stream has nothing more for now.
func (d *netRR) recvInto(s stream, buf []byte, got *int) error {
	for *got < len(buf) {
		t := d.tr.begin()
		n, err := s.Recv(buf[*got:])
		d.tr.end(spanRecv, t)
		switch {
		case err == kbase.EAGAIN:
			return nil
		case err != kbase.EOK:
			return callErr("recv", err)
		case n == 0:
			return callErr("recv", kbase.EPIPE) // unexpected end of stream
		}
		*got += n
	}
	return nil
}

func (d *netRR) send(s stream, data []byte) error {
	t := d.tr.begin()
	err := s.Send(data)
	d.tr.end(spanSend, t)
	if err != kbase.EOK {
		return callErr("send", err)
	}
	return nil
}

func (d *netRR) exec() error {
	c := &d.conns[d.c]
	if d.replace {
		d.closed += retransmits(c.cl) + retransmits(c.srv)
		for _, s := range []stream{c.cl, c.srv} {
			t := d.tr.begin()
			err := s.Close()
			d.tr.end(spanNetClose, t)
			if err != kbase.EOK {
				return callErr("close", err)
			}
		}
		nc, err := d.connect()
		if err != nil {
			return err
		}
		*c = nc
	}
	if err := d.send(c.cl, d.req); err != nil {
		return err
	}
	sgot, got := 0, 0
	rbuf := d.rbuf[:d.respLen]
	for i := 0; ; i++ {
		if sgot < netReq {
			if err := d.recvInto(c.srv, d.sbuf, &sgot); err != nil {
				return err
			}
			if sgot == netReq {
				if err := d.send(c.srv, d.resp[:d.respLen]); err != nil {
					return err
				}
			}
		}
		if sgot == netReq {
			if err := d.recvInto(c.cl, rbuf, &got); err != nil {
				return err
			}
			if got == d.respLen {
				return nil
			}
		}
		if i == stepBudget {
			return callErr("recv", kbase.ETIMEDOUT)
		}
		d.step()
	}
}

func (d *netRR) check() error {
	if !bytes.Equal(d.sbuf, d.req) {
		return fmt.Errorf("conn %d: server received a request that differs from the one sent", d.c)
	}
	if !bytes.Equal(d.rbuf[:d.respLen], d.resp[:d.respLen]) {
		return fmt.Errorf("conn %d: client received a %d-byte response that differs from the one sent", d.c, d.respLen)
	}
	return nil
}

func (d *netRR) verify() error {
	for i, c := range d.conns {
		if !c.cl.Established() || !c.srv.Established() {
			return fmt.Errorf("conn %d: no longer established at the end of the run", i)
		}
		for _, s := range []stream{c.cl, c.srv} {
			if err := s.Close(); err != kbase.EOK {
				return callErr("close", err)
			}
		}
	}
	return nil
}
