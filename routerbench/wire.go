package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// sinkRcvBuf is the receive buffer the benchmark asks for on its own
// sink socket, so that loss at the sink is rare and, via SO_RXQ_OVFL,
// counted apart from the router's.
const sinkRcvBuf = 4 << 20

// wireSink is the benchmark's UDP socket at the far end of the
// router's egress link. One goroutine reads it, verifies every datagram
// and reads the socket's own overflow count from each message.
type wireSink struct {
	conn     *net.UDPConn
	t        *tracker
	overflow atomic.Uint32 // datagrams the kernel dropped at this socket
	wg       sync.WaitGroup
}

func newWireSink(t *tracker) (*wireSink, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	s := &wireSink{conn: conn, t: t}
	if err := s.configure(); err != nil {
		conn.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

func (s *wireSink) addr() string { return s.conn.LocalAddr().String() }

// configure sizes the socket's receive buffer (forcing past rmem_max
// when the process may) and enables SO_RXQ_OVFL.
func (s *wireSink) configure() error {
	rc, err := s.conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, sinkRcvBuf) != nil {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, sinkRcvBuf)
		}
		if serr == nil {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
		}
	})
	if err != nil {
		return err
	}
	return serr
}

func (s *wireSink) loop() {
	defer s.wg.Done()
	var buf [2048]byte
	var oob [64]byte
	for {
		n, oobn, _, _, err := s.conn.ReadMsgUDPAddrPort(buf[:], oob[:])
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if v, ok := rxqOverflow(oob[:oobn]); ok {
			s.overflow.Store(v)
		}
		s.t.deliver(buf[:n], 1)
	}
}

// close stops the reader and waits for it.
func (s *wireSink) close() {
	s.conn.Close()
	s.wg.Wait()
}

// rxqOverflow finds the SO_RXQ_OVFL control message (the socket's
// cumulative drop count) in a message's ancillary data.
func rxqOverflow(oob []byte) (uint32, bool) {
	const hdr = 16 // struct cmsghdr on 64-bit Linux
	for len(oob) >= hdr {
		l := int(binary.NativeEndian.Uint64(oob))
		if l < hdr || l > len(oob) {
			return 0, false
		}
		level := int32(binary.NativeEndian.Uint32(oob[8:]))
		typ := int32(binary.NativeEndian.Uint32(oob[12:]))
		if level == syscall.SOL_SOCKET && typ == syscall.SO_RXQ_OVFL && l >= hdr+4 {
			return binary.NativeEndian.Uint32(oob[hdr:]), true
		}
		oob = oob[(l+7)&^7:]
	}
	return 0, false
}

// udpRcvbufErrors reads the kernel's Udp RcvbufErrors counter: UDP
// datagrams dropped because a socket's receive buffer was full.
func udpRcvbufErrors() (uint64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var names []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if names == nil {
			names = fields
			continue
		}
		for i, name := range names {
			if name == "RcvbufErrors" && i < len(fields) {
				return strconv.ParseUint(fields[i], 10, 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no Udp RcvbufErrors in /proc/net/snmp")
}
