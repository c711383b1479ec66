//! A small blocking client for the serving protocol, used by the
//! closed-loop load generator and the integration tests.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use poetbin_bits::BitVec;

use crate::protocol::{
    self, ModelInfo, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED,
    STATUS_UNKNOWN_MODEL,
};

/// The server's answer to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// The model's prediction.
    Class(usize),
    /// The request named a model id the server does not serve.
    UnknownModel,
    /// The request was malformed for its model (wrong row width, or too
    /// short to parse).
    BadRequest,
    /// The server shed the request because every bounded pending queue
    /// was full; retry with backoff ([`Client::predict_with_backoff`]).
    /// The connection is still good.
    Overloaded,
    /// The server shed the request because it aged past the per-request
    /// deadline while queued; retry with backoff
    /// ([`Client::predict_with_backoff`]). The connection is still good.
    DeadlineExceeded,
}

impl Response {
    /// Whether this response is a transient shed
    /// ([`Overloaded`](Self::Overloaded) /
    /// [`DeadlineExceeded`](Self::DeadlineExceeded)) that a client may
    /// retry with backoff on the same connection.
    pub fn is_retryable(self) -> bool {
        matches!(self, Response::Overloaded | Response::DeadlineExceeded)
    }
}

/// Jittered-exponential-backoff schedule for retrying transient sheds
/// ([`Response::Overloaded`] / [`Response::DeadlineExceeded`]).
///
/// Attempt `k` (0-based) sleeps a uniformly random ("full jitter")
/// duration in `[0, min(cap, base · 2^k)]`, drawn from a deterministic
/// stream seeded by [`seed`](Self::seed) — so a seeded load run retries
/// on a reproducible schedule. Full jitter decorrelates retrying
/// clients: after a shared overload spike, their retries spread over the
/// window instead of arriving as a synchronized second spike.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff cap base: attempt `k` draws from `[0, base · 2^k]`.
    pub base: Duration,
    /// Upper bound on any single sleep, whatever the attempt number.
    pub cap: Duration,
    /// Seed for the jitter stream (deterministic per policy value).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(20),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry attempt `attempt` (0-based).
    /// `salt` decorrelates streams that share a policy value (pass a
    /// request id or client index). Deterministic in
    /// `(seed, salt, attempt)`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let span = ceiling.as_nanos().max(1) as u64;
        // splitmix64 over (seed, salt, attempt): full jitter in [0, ceiling].
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Duration::from_nanos(z % span)
    }
}

/// A connected protocol client.
///
/// The server may serve several models; the hello advertises all of them
/// (see [`Client::models`]) and every request names its target. The
/// un-suffixed methods ([`Client::send`], [`Client::predict`],
/// [`Client::num_features`], …) address model 0 — the common
/// single-model case — while the `_to`/`_on` variants take an explicit
/// model id.
///
/// Requests may be pipelined: any number of [`Client::send`] calls may be
/// outstanding before the matching [`Client::recv`] calls, and the server
/// is free to answer out of order (it answers a whole batch at once).
/// [`Client::predict`] is the simple closed-loop form; a pipelined
/// caller splits the client into independently owned halves with
/// [`Client::into_split`].
pub struct Client {
    sender: ClientSender,
    receiver: ClientReceiver,
}

impl Client {
    /// Connects and consumes the server hello.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; [`io::ErrorKind::InvalidData`] when
    /// the peer is not a POETSRV2 server or advertises no models.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let models = protocol::read_hello(&mut reader)?;
        if models.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server advertises no models",
            ));
        }
        Ok(Client {
            sender: ClientSender {
                writer,
                models,
                next_id: 0,
            },
            receiver: ClientReceiver { reader },
        })
    }

    /// Every model the server advertised, in hello order.
    pub fn models(&self) -> &[ModelInfo] {
        &self.sender.models
    }

    /// The advertised model with the given name, if any.
    pub fn model(&self, name: &str) -> Option<&ModelInfo> {
        self.sender.models.iter().find(|m| m.name == name)
    }

    /// Row width model 0 expects.
    pub fn num_features(&self) -> usize {
        self.sender.models[0].num_features
    }

    /// Number of classes model 0's predictions range over.
    pub fn classes(&self) -> usize {
        self.sender.models[0].classes
    }

    /// Sends one request to model 0, returning the id that will come back
    /// with its response.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from model 0's feature count.
    pub fn send(&mut self, row: &BitVec) -> io::Result<u64> {
        self.sender.send(row)
    }

    /// Sends one request to `model_id`, returning the id that will come
    /// back with its response.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the server never advertised `model_id`, or if
    /// `row.len()` differs from that model's feature count. To probe the
    /// server's own rejection path, use
    /// [`ClientSender::send_raw`](ClientSender::send_raw).
    pub fn send_to(&mut self, model_id: u16, row: &BitVec) -> io::Result<u64> {
        self.sender.send_to(model_id, row)
    }

    /// Receives the next response as `(request_id, response)`.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] when the server closes the
    /// connection (e.g. after an unparseable frame), or
    /// [`io::ErrorKind::InvalidData`] on a malformed response.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        self.receiver.recv()
    }

    /// Sends one row to model 0 and blocks for its prediction.
    ///
    /// # Errors
    ///
    /// As for [`Client::predict_on`].
    pub fn predict(&mut self, row: &BitVec) -> io::Result<usize> {
        self.predict_on(0, row)
    }

    /// Sends one row to `model_id` and blocks for its prediction.
    ///
    /// # Errors
    ///
    /// As for [`Client::send_to`] / [`Client::recv`], plus
    /// [`io::ErrorKind::InvalidData`] if the server rejects the request
    /// or the response carries a different request id (only possible when
    /// mixed with pipelined [`Client::send`] calls whose responses were
    /// never collected), [`io::ErrorKind::WouldBlock`] if the server
    /// shed the request as [`Response::Overloaded`], and
    /// [`io::ErrorKind::TimedOut`] for [`Response::DeadlineExceeded`] —
    /// for both sheds the connection is still usable; retry with backoff
    /// ([`Client::predict_with_backoff`]).
    pub fn predict_on(&mut self, model_id: u16, row: &BitVec) -> io::Result<usize> {
        let id = self.send_to(model_id, row)?;
        let (got, response) = self.recv()?;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for request {got}, expected {id}"),
            ));
        }
        match response {
            Response::Class(class) => Ok(class),
            Response::UnknownModel => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server rejected request {id}: unknown model {model_id}"),
            )),
            Response::BadRequest => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server rejected request {id} as malformed"),
            )),
            Response::Overloaded => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("server shed request {id}: every queue shard is full"),
            )),
            Response::DeadlineExceeded => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("server shed request {id}: deadline exceeded while queued"),
            )),
        }
    }

    /// [`Client::predict_on`] with retry-with-jittered-backoff on
    /// transient sheds ([`Response::Overloaded`] /
    /// [`Response::DeadlineExceeded`]): on a shed, sleeps
    /// [`RetryPolicy::backoff`] and resends, up to
    /// [`RetryPolicy::max_retries`] times. Returns the prediction plus
    /// how many retries it took, so load reports can account retries
    /// separately from failures.
    ///
    /// # Errors
    ///
    /// As [`Client::predict_on`]; a shed that survives every retry
    /// surfaces as the final attempt's error
    /// ([`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
    pub fn predict_with_backoff(
        &mut self,
        model_id: u16,
        row: &BitVec,
        policy: &RetryPolicy,
    ) -> io::Result<(usize, u32)> {
        let mut attempt = 0u32;
        loop {
            match self.predict_on(model_id, row) {
                Ok(class) => return Ok((class, attempt)),
                Err(e)
                    if attempt < policy.max_retries
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                {
                    std::thread::sleep(policy.backoff(attempt, self.sender.next_id));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Splits the client into independently owned send and receive
    /// halves, so one thread can pace requests onto the wire while
    /// another drains responses — the shape pipelined callers and the
    /// overload tests need (a closed-loop caller can just keep using
    /// [`Client::predict`]).
    pub fn into_split(self) -> (ClientSender, ClientReceiver) {
        (self.sender, self.receiver)
    }
}

/// The sending half of a [`Client`]; see [`Client::into_split`].
pub struct ClientSender {
    writer: TcpStream,
    models: Vec<ModelInfo>,
    next_id: u64,
}

impl ClientSender {
    /// Every model the server advertised, in hello order.
    pub fn models(&self) -> &[ModelInfo] {
        &self.models
    }

    /// Sends one request to model 0; see [`Client::send`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from model 0's feature count.
    pub fn send(&mut self, row: &BitVec) -> io::Result<u64> {
        let model_id = self.models[0].id;
        self.send_to(model_id, row)
    }

    /// Sends one request to `model_id`; see [`Client::send_to`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the server never advertised `model_id` or the row width
    /// does not match it.
    pub fn send_to(&mut self, model_id: u16, row: &BitVec) -> io::Result<u64> {
        let model = self
            .models
            .iter()
            .find(|m| m.id == model_id)
            .unwrap_or_else(|| panic!("server never advertised model {model_id}"));
        assert_eq!(
            row.len(),
            model.num_features,
            "row has {} features, model {} expects {}",
            row.len(),
            model_id,
            model.num_features
        );
        self.send_raw(model_id, row)
    }

    /// Sends a request without validating the model id or row width
    /// against the hello — deliberately, so tests and diagnostics can
    /// exercise the server's typed rejection path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn send_raw(&mut self, model_id: u16, row: &BitVec) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        protocol::write_frame(
            &mut self.writer,
            &protocol::encode_request(model_id, id, row),
        )?;
        Ok(id)
    }
}

/// The receiving half of a [`Client`]; see [`Client::into_split`].
pub struct ClientReceiver {
    reader: BufReader<TcpStream>,
}

impl ClientReceiver {
    /// Receives the next response as `(request_id, response)`.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] when the server closes the
    /// connection (e.g. after an unparseable frame), or
    /// [`io::ErrorKind::InvalidData`] on a malformed response or unknown
    /// status code.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        let payload = protocol::read_frame(&mut self.reader, protocol::RESPONSE_LEN)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        let (id, status, class) = protocol::decode_response(&payload).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "malformed response frame")
        })?;
        let response = match status {
            STATUS_OK => Response::Class(class as usize),
            STATUS_UNKNOWN_MODEL => Response::UnknownModel,
            STATUS_BAD_REQUEST => Response::BadRequest,
            STATUS_OVERLOADED => Response::Overloaded,
            STATUS_DEADLINE_EXCEEDED => Response::DeadlineExceeded,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown response status {other}"),
                ))
            }
        };
        Ok((id, response))
    }
}
