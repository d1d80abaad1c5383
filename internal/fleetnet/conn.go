package fleetnet

import (
	"bufio"
	"io"
	"net"
	"time"
)

// msgConn frames tier-link messages over one net.Conn: buffered reads
// with per-message deadlines, single-write sends from a reused scratch
// buffer. The parse itself is delegated to DecodeMsg, so the fuzzed
// decoder is the single source of wire truth for both directions.
type msgConn struct {
	conn    net.Conn
	br      *bufio.Reader
	rbuf    []byte // assembled incoming message
	wbuf    []byte // encoded outgoing message
	timeout time.Duration
}

func newMsgConn(conn net.Conn, timeout time.Duration) *msgConn {
	return &msgConn{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 1<<14),
		rbuf:    make([]byte, 0, msgHeaderLen+maxBodyLen),
		timeout: timeout,
	}
}

// buffered reports whether already-read bytes are pending — used to
// flush acks exactly when the inbound pipe idles.
func (c *msgConn) buffered() bool { return c.br.Buffered() > 0 }

// write encodes and sends one message under a write deadline.
func (c *msgConn) write(m Msg) error {
	c.wbuf = AppendMsg(c.wbuf[:0], m)
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	_, err := c.conn.Write(c.wbuf)
	return err
}

// read assembles one message under the given deadline: the header,
// then exactly the body length it declares. The kind is left to
// DecodeMsg, so framing never needs to know what a message carries. A
// timeout is returned as-is so callers can treat it as idleness rather
// than a dead link. The returned Msg's Payload aliases the connection's
// scratch buffer and is only valid until the next read.
func (c *msgConn) read(timeout time.Duration) (Msg, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Msg{}, err
	}
	c.rbuf = c.rbuf[:msgHeaderLen]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return Msg{}, err
	}
	blen, err := decodeHeader(c.rbuf)
	if err != nil {
		return Msg{}, err
	}
	c.rbuf = c.rbuf[:msgHeaderLen+blen]
	if _, err := io.ReadFull(c.br, c.rbuf[msgHeaderLen:]); err != nil {
		return Msg{}, err
	}
	m, _, err := DecodeMsg(c.rbuf)
	return m, err
}

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
