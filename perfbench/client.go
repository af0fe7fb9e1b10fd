package main

// The load generator's client: one keep-alive HTTP/1.1 connection,
// requests serialized before the timed phase, responses parsed with
// net/http's ReadResponse so no transport goroutines run beside the
// timed loop. Each op is timed from the first byte written to the last
// body byte read; validation happens after the timer stops.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// expect is the in-process reference answer for one request key.
type expect struct {
	Status int    `json:"status"`
	Hash   string `json:"hash"` // hex SHA-256 of the body bytes as sent
	Len    int    `json:"len"`
	ETag   string `json:"etag,omitempty"`
}

// request serializes o. etag is sent as If-None-Match for a
// conditional op.
func request(o op, etag string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n", o.Method, o.Path)
	if o.Accept != "" {
		fmt.Fprintf(&b, "Accept: %s\r\n", o.Accept)
	}
	if o.Gzip {
		b.WriteString("Accept-Encoding: gzip\r\n")
	}
	if o.Cond {
		fmt.Fprintf(&b, "If-None-Match: %s\r\n", etag)
	}
	if o.Body != "" {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(o.Body))
	}
	b.WriteString("\r\n")
	b.WriteString(o.Body)
	return b.Bytes()
}

// conn is one keep-alive client connection.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// reply is one timed exchange.
type reply struct {
	status int
	// latency runs from the request's first byte written to the last
	// body byte read; first to the end of the first body line (the first
	// NDJSON point of a campaign stream), or of the whole body when it
	// has no newline, or of the headers when there is no body.
	latency, first time.Duration
	body           []byte
}

// firstReadSize bounds body reads until the first line is seen.
const firstReadSize = 1024

// do sends one serialized request and reads the whole reply into buf
// (reused across calls). On a transport error the connection is
// redialled for the next call.
func (c *conn) do(req []byte, buf []byte) (reply, error) {
	if c.c == nil {
		nc, err := dial(c.addr)
		if err != nil {
			return reply{}, err
		}
		*c = *nc
	}
	c.c.SetDeadline(time.Now().Add(60 * time.Second))
	start := time.Now()
	if _, err := c.c.Write(req); err != nil {
		c.close()
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return reply{}, err
	}
	r := reply{status: resp.StatusCode}
	body := buf[:0]
	for {
		if len(body)+firstReadSize > cap(body) {
			body = append(body, make([]byte, firstReadSize)...)[:len(body)]
		}
		// A chunked body's Read keeps filling a large buffer while more
		// chunks are already buffered, so reads stay small until the
		// first line has arrived.
		window := body[len(body):cap(body)]
		if r.first == 0 {
			window = window[:firstReadSize]
		}
		n, err := resp.Body.Read(window)
		if n > 0 && r.first == 0 && bytes.IndexByte(body[len(body):len(body)+n], '\n') >= 0 {
			r.first = time.Since(start)
		}
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			c.close()
			return reply{}, err
		}
	}
	r.latency = time.Since(start)
	if r.first == 0 {
		r.first = r.latency
	}
	resp.Body.Close()
	if resp.Close {
		c.close()
	}
	r.body = body
	return r, nil
}

// check compares a reply with its reference answer.
func check(r reply, want expect) error {
	if r.status != want.Status {
		return fmt.Errorf("status %d, want %d", r.status, want.Status)
	}
	if len(r.body) != want.Len {
		return fmt.Errorf("body %d bytes, want %d", len(r.body), want.Len)
	}
	sum := sha256.Sum256(r.body)
	if hex.EncodeToString(sum[:]) != want.Hash {
		return fmt.Errorf("body differs from the in-process rendering")
	}
	return nil
}

// get is an untimed one-shot GET on its own connection (readiness,
// /metrics scrapes), kept off the timed connection.
func get(addr, path string) (int, []byte, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	r, err := c.do(request(op{Method: "GET", Path: path}, ""), nil)
	if err != nil {
		return 0, nil, err
	}
	return r.status, r.body, nil
}

// parseMetrics reads Prometheus text into series -> value.
func parseMetrics(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[string(line[:i])] = v
	}
	return out
}
