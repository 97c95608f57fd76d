package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// maxConns caps the client connections one server may accept: the
// load generator never opens more than the host has cores.
const maxConns = 2

// httpServer serves a handler on a loopback port over HTTP/1.1 and
// cleartext HTTP/2, counting the connections it accepts.
type httpServer struct {
	url   string
	srv   *http.Server
	done  chan error
	total atomic.Int64 // connections accepted
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	hs := &httpServer{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	hs.srv = &http.Server{Handler: h, Protocols: &p, ConnState: hs.track}
	go func() { hs.done <- hs.srv.Serve(ln) }()
	return hs, nil
}

func (hs *httpServer) track(_ net.Conn, st http.ConnState) {
	if st == http.StateNew {
		hs.total.Add(1)
	}
}

// close shuts the server down and checks the connection cap.
func (hs *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, hs.srv.Close())
	}
	if serr := <-hs.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if n := hs.total.Load(); n > maxConns {
		err = errors.Join(err, fmt.Errorf("server accepted %d connections, cap %d", n, maxConns))
	}
	return err
}

// http1Client opens at most conns HTTP/1.1 connections.
func http1Client(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// h2cClient multiplexes every request over one cleartext HTTP/2
// connection.
func h2cClient() *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: &p, DisableCompression: true}}
}
