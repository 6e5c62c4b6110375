package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// reply is what the load generator observed for one operation.
type reply struct {
	// late is how far behind its intended time the generator handed the
	// operation to a connection; latency runs from the intended time to
	// the last response byte.
	late, latency time.Duration
	status        int
	body          []byte
	err           error
}

// conns is the number of keep-alive connections the generator sends on.
const conns = 2

// drive offers the operations open loop: a single dispatcher hands each
// one to the connections' shared queue at its intended time, whatever the
// state of earlier requests, and the first idle connection sends it. A
// request that waits for a busy connection has that wait counted in its
// latency.
func drive(addr string, ops []op) ([]reply, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	replies := make([]reply, len(ops))
	// Sized to every send, so the dispatcher never blocks on a connection.
	queue := make(chan int, len(ops))
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			for _, c := range cs[:i] {
				c.close()
			}
			return nil, err
		}
		cs[i] = c
	}
	var t0 time.Time
	var wg, started sync.WaitGroup
	started.Add(1)
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			defer c.close()
			started.Wait()
			for idx := range queue {
				due := t0.Add(ops[idx].at)
				status, body, err := c.roundTrip(ops[idx].req)
				r := &replies[idx]
				r.latency = time.Since(due)
				r.status, r.body, r.err = status, body, err
			}
		}(c)
	}
	t0 = time.Now().Add(10 * time.Millisecond)
	started.Done()
	for idx := range ops {
		due := t0.Add(ops[idx].at)
		sleepUntil(due)
		replies[idx].late = time.Since(due)
		queue <- idx
	}
	close(queue)
	wg.Wait()
	return replies, nil
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than on a
// runtime timer: the Go scheduler rounds idle timer waits up to whole
// milliseconds, which would add up to 1 ms of generator lateness to every
// request at these rates.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// conn is one keep-alive HTTP/1.1 connection that sends pre-rendered
// requests, redialling after a transport error.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *conn) redial() error {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("dialing drmserver: %w", err)
	}
	c.nc, c.br = nc, bufio.NewReader(nc)
	return nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// roundTrip writes req and reads the whole response.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if c.nc == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	_ = c.nc.SetDeadline(time.Now().Add(120 * time.Second)) // a deadline error surfaces on the I/O below
	status, body, err := c.exchange(req)
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *conn) exchange(req []byte) (int, []byte, error) {
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
