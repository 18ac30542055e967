//! The MPTCP TCP option (kind 30) and its subtypes.
//!
//! The paper's central design conclusion (§3.3.3) is that all MPTCP
//! signalling — data sequence mappings, DATA_ACKs, DATA_FIN — must ride in
//! TCP *options*, never in the payload, because payload-encoded control data
//! is subject to flow control and middlebox buffering and can deadlock.
//! This module defines those options with RFC 6824 wire layouts.

use crate::crypto::SHA1_LEN;

/// A data sequence mapping (DSM): maps subflow bytes into the connection's
/// 64-bit data sequence space.
///
/// Per §3.3.4, the subflow side of the mapping is a *relative* offset from
/// the subflow's initial sequence number, so sequence-number-rewriting
/// middleboxes (10% of paths in the paper's study) cannot corrupt it, and
/// TSO NICs that copy the option onto every split segment merely produce
/// harmless duplicate mappings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DssMapping {
    /// Data sequence number of the first byte of the mapping.
    pub dsn: u64,
    /// Subflow sequence offset (relative to the subflow ISN + 1, i.e. the
    /// first data byte on the subflow is offset 1, matching RFC 6824).
    pub subflow_seq: u32,
    /// Number of bytes covered by the mapping.
    pub len: u16,
    /// DSS checksum over the MPTCP pseudo-header + payload, if negotiated.
    pub checksum: Option<u16>,
}

impl DssMapping {
    /// The data sequence number one past the end of this mapping.
    pub fn dsn_end(&self) -> u64 {
        self.dsn + u64::from(self.len)
    }

    /// The relative subflow sequence one past the end of this mapping.
    pub fn subflow_end(&self) -> u32 {
        self.subflow_seq.wrapping_add(u32::from(self.len))
    }
}

/// Address family + address carried in ADD_ADDR. Only IPv4 is modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdvertisedAddr {
    /// Address identifier, scoped to the sending host.
    pub addr_id: u8,
    /// IPv4 address as a u32 (network order semantics kept abstract).
    pub addr: u32,
    /// Optional port; absent means "same port as the initial subflow".
    pub port: Option<u16>,
}

/// MPTCP option subtypes (RFC 6824 kind-30 option).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MptcpOption {
    /// MP_CAPABLE: negotiates MPTCP on the initial subflow and exchanges
    /// 64-bit keys. `receiver_key` is absent on the SYN, present on the
    /// SYN/ACK and the third ACK.
    MpCapable {
        /// Protocol version (0 for the paper-era draft semantics).
        version: u8,
        /// "A" flag: DSS checksums required (§3.3.6; can be disabled in
        /// datacenters).
        checksum_required: bool,
        /// Key of the packet's sender.
        sender_key: u64,
        /// Key of the packet's receiver, echoed for reliability.
        receiver_key: Option<u64>,
    },
    /// MP_JOIN on a SYN: initiates an additional subflow.
    MpJoinSyn {
        /// Token identifying the connection at the receiver
        /// (SHA1(receiver_key) truncated, §3.2).
        token: u32,
        /// Random nonce for HMAC freshness.
        nonce: u32,
        /// Address identifier of the initiator's source address.
        addr_id: u8,
        /// Backup-path flag.
        backup: bool,
    },
    /// MP_JOIN on a SYN/ACK: listener proves key knowledge.
    MpJoinSynAck {
        /// Truncated (64-bit) HMAC over both nonces.
        mac: u64,
        /// Listener's nonce.
        nonce: u32,
        /// Address identifier of the listener's address.
        addr_id: u8,
        /// Backup-path flag.
        backup: bool,
    },
    /// MP_JOIN on the third ACK: initiator's full 160-bit HMAC.
    MpJoinAck {
        /// Full HMAC-SHA1 over the nonces.
        mac: [u8; SHA1_LEN],
    },
    /// DSS: data sequence signal — DATA_ACK, mapping, and/or DATA_FIN.
    Dss {
        /// Explicit connection-level cumulative acknowledgment (§3.3.2):
        /// the left edge of the connection receive window.
        data_ack: Option<u64>,
        /// Mapping of subflow payload bytes into data sequence space.
        mapping: Option<DssMapping>,
        /// DATA_FIN: this DSS marks the end of the data stream. The DATA_FIN
        /// occupies one data sequence number (like a TCP FIN).
        data_fin: bool,
    },
    /// ADD_ADDR: announce an additional address (server-side NAT traversal,
    /// §3.2).
    AddAddr(AdvertisedAddr),
    /// REMOVE_ADDR: withdraw an address whose subflows are implicitly
    /// closed (mobility support, §3.4).
    RemoveAddr {
        /// Address identifiers being withdrawn.
        addr_ids: Vec<u8>,
    },
    /// MP_PRIO: change a subflow's backup priority.
    MpPrio {
        /// New backup flag value.
        backup: bool,
        /// Optional address id the change applies to.
        addr_id: Option<u8>,
    },
    /// MP_FAIL: checksum failure notification carrying the failing DSN;
    /// triggers fallback when it is the only subflow (§3.3.6).
    MpFail {
        /// Data sequence number at which the failure was detected.
        dsn: u64,
    },
    /// FASTCLOSE: abort the whole connection (RST-like at data level).
    FastClose {
        /// Receiver's key as proof.
        receiver_key: u64,
    },
}

/// RFC 6824 subtype codes.
pub mod subtype {
    pub const MP_CAPABLE: u8 = 0x0;
    pub const MP_JOIN: u8 = 0x1;
    pub const DSS: u8 = 0x2;
    pub const ADD_ADDR: u8 = 0x3;
    pub const REMOVE_ADDR: u8 = 0x4;
    pub const MP_PRIO: u8 = 0x5;
    pub const MP_FAIL: u8 = 0x6;
    pub const FASTCLOSE: u8 = 0x7;
}

impl MptcpOption {
    /// Encode the option *value* (bytes after kind and length).
    pub fn encode_value(&self, out: &mut Vec<u8>) {
        match self {
            MptcpOption::MpCapable {
                version,
                checksum_required,
                sender_key,
                receiver_key,
            } => {
                out.push((subtype::MP_CAPABLE << 4) | (version & 0x0f));
                let mut flags = 0x01u8; // H: HMAC-SHA1 crypto algorithm
                if *checksum_required {
                    flags |= 0x80; // A: checksum required
                }
                out.push(flags);
                out.extend_from_slice(&sender_key.to_be_bytes());
                if let Some(rk) = receiver_key {
                    out.extend_from_slice(&rk.to_be_bytes());
                }
            }
            MptcpOption::MpJoinSyn {
                token,
                nonce,
                addr_id,
                backup,
            } => {
                out.push((subtype::MP_JOIN << 4) | u8::from(*backup));
                out.push(*addr_id);
                out.extend_from_slice(&token.to_be_bytes());
                out.extend_from_slice(&nonce.to_be_bytes());
            }
            MptcpOption::MpJoinSynAck {
                mac,
                nonce,
                addr_id,
                backup,
            } => {
                out.push((subtype::MP_JOIN << 4) | u8::from(*backup));
                out.push(*addr_id);
                out.extend_from_slice(&mac.to_be_bytes());
                out.extend_from_slice(&nonce.to_be_bytes());
            }
            MptcpOption::MpJoinAck { mac } => {
                out.push(subtype::MP_JOIN << 4);
                out.push(0);
                out.extend_from_slice(mac);
            }
            MptcpOption::Dss {
                data_ack,
                mapping,
                data_fin,
            } => {
                out.push(subtype::DSS << 4);
                let mut flags = 0u8;
                if *data_fin {
                    flags |= 0x10; // F
                }
                if mapping.is_some() {
                    flags |= 0x04 | 0x08; // M + m (8-byte DSN)
                }
                if data_ack.is_some() {
                    // A only: 4-byte truncated data ack. Keeping the common
                    // encoding at 4 bytes is what lets a full DSS mapping, a
                    // DATA_ACK and timestamps coexist in the 40-byte option
                    // space; the receiver re-expands against its send state
                    // (see `infer_full_dsn` in the mptcp crate).
                    flags |= 0x01;
                }
                out.push(flags);
                if let Some(da) = data_ack {
                    out.extend_from_slice(&(*da as u32).to_be_bytes());
                }
                if let Some(m) = mapping {
                    out.extend_from_slice(&m.dsn.to_be_bytes());
                    out.extend_from_slice(&m.subflow_seq.to_be_bytes());
                    out.extend_from_slice(&m.len.to_be_bytes());
                    if let Some(ck) = m.checksum {
                        out.extend_from_slice(&ck.to_be_bytes());
                    }
                }
            }
            MptcpOption::AddAddr(a) => {
                out.push((subtype::ADD_ADDR << 4) | 0x4); // IPv4
                out.push(a.addr_id);
                out.extend_from_slice(&a.addr.to_be_bytes());
                if let Some(p) = a.port {
                    out.extend_from_slice(&p.to_be_bytes());
                }
            }
            MptcpOption::RemoveAddr { addr_ids } => {
                out.push(subtype::REMOVE_ADDR << 4);
                out.extend_from_slice(addr_ids);
            }
            MptcpOption::MpPrio { backup, addr_id } => {
                out.push((subtype::MP_PRIO << 4) | u8::from(*backup));
                if let Some(id) = addr_id {
                    out.push(*id);
                }
            }
            MptcpOption::MpFail { dsn } => {
                out.push(subtype::MP_FAIL << 4);
                out.push(0);
                out.extend_from_slice(&dsn.to_be_bytes());
            }
            MptcpOption::FastClose { receiver_key } => {
                out.push(subtype::FASTCLOSE << 4);
                out.push(0);
                out.extend_from_slice(&receiver_key.to_be_bytes());
            }
        }
    }

    /// Exact length of [`encode_value`](Self::encode_value)'s output, so
    /// callers can reserve or patch length bytes without encoding into a
    /// scratch buffer first.
    pub fn value_len(&self) -> usize {
        match self {
            MptcpOption::MpCapable { receiver_key, .. } => {
                2 + 8 + if receiver_key.is_some() { 8 } else { 0 }
            }
            MptcpOption::MpJoinSyn { .. } => 10,
            MptcpOption::MpJoinSynAck { .. } => 14,
            MptcpOption::MpJoinAck { .. } => 22,
            MptcpOption::Dss {
                data_ack, mapping, ..
            } => {
                let ack = if data_ack.is_some() { 4 } else { 0 };
                let map = match mapping {
                    Some(m) => 8 + 4 + 2 + if m.checksum.is_some() { 2 } else { 0 },
                    None => 0,
                };
                2 + ack + map
            }
            MptcpOption::AddAddr(a) => 2 + 4 + if a.port.is_some() { 2 } else { 0 },
            MptcpOption::RemoveAddr { addr_ids } => 1 + addr_ids.len(),
            MptcpOption::MpPrio { addr_id, .. } => 1 + usize::from(addr_id.is_some()),
            MptcpOption::MpFail { .. } => 10,
            MptcpOption::FastClose { .. } => 10,
        }
    }

    /// Decode an MPTCP option value (bytes after kind and length).
    ///
    /// Returns `None` for malformed or unknown subtypes; a defensive parser
    /// is part of the paper's "expect the network to mangle you" stance.
    pub fn decode_value(value: &[u8]) -> Option<MptcpOption> {
        if value.is_empty() {
            return None;
        }
        let st = value[0] >> 4;
        match st {
            subtype::MP_CAPABLE => {
                if value.len() < 10 {
                    return None;
                }
                let version = value[0] & 0x0f;
                let flags = value[1];
                let sender_key = u64::from_be_bytes(value[2..10].try_into().ok()?);
                let receiver_key = if value.len() >= 18 {
                    Some(u64::from_be_bytes(value[10..18].try_into().ok()?))
                } else {
                    None
                };
                Some(MptcpOption::MpCapable {
                    version,
                    checksum_required: flags & 0x80 != 0,
                    sender_key,
                    receiver_key,
                })
            }
            subtype::MP_JOIN => match value.len() {
                10 => Some(MptcpOption::MpJoinSyn {
                    backup: value[0] & 0x01 != 0,
                    addr_id: value[1],
                    token: u32::from_be_bytes(value[2..6].try_into().ok()?),
                    nonce: u32::from_be_bytes(value[6..10].try_into().ok()?),
                }),
                14 => Some(MptcpOption::MpJoinSynAck {
                    backup: value[0] & 0x01 != 0,
                    addr_id: value[1],
                    mac: u64::from_be_bytes(value[2..10].try_into().ok()?),
                    nonce: u32::from_be_bytes(value[10..14].try_into().ok()?),
                }),
                22 => {
                    let mac: [u8; SHA1_LEN] = value[2..22].try_into().ok()?;
                    Some(MptcpOption::MpJoinAck { mac })
                }
                _ => None,
            },
            subtype::DSS => {
                if value.len() < 2 {
                    return None;
                }
                let flags = value[1];
                let mut off = 2usize;
                let data_ack = if flags & 0x01 != 0 {
                    let width = if flags & 0x02 != 0 { 8 } else { 4 };
                    if value.len() < off + width {
                        return None;
                    }
                    let da = if width == 8 {
                        u64::from_be_bytes(value[off..off + 8].try_into().ok()?)
                    } else {
                        u64::from(u32::from_be_bytes(value[off..off + 4].try_into().ok()?))
                    };
                    off += width;
                    Some(da)
                } else {
                    None
                };
                let mapping = if flags & 0x04 != 0 {
                    let width = if flags & 0x08 != 0 { 8 } else { 4 };
                    if value.len() < off + width + 6 {
                        return None;
                    }
                    let dsn = if width == 8 {
                        u64::from_be_bytes(value[off..off + 8].try_into().ok()?)
                    } else {
                        u64::from(u32::from_be_bytes(value[off..off + 4].try_into().ok()?))
                    };
                    off += width;
                    let subflow_seq = u32::from_be_bytes(value[off..off + 4].try_into().ok()?);
                    off += 4;
                    let len = u16::from_be_bytes(value[off..off + 2].try_into().ok()?);
                    off += 2;
                    let checksum = if value.len() >= off + 2 {
                        let ck = u16::from_be_bytes(value[off..off + 2].try_into().ok()?);
                        Some(ck)
                    } else {
                        None
                    };
                    Some(DssMapping {
                        dsn,
                        subflow_seq,
                        len,
                        checksum,
                    })
                } else {
                    None
                };
                Some(MptcpOption::Dss {
                    data_ack,
                    mapping,
                    data_fin: flags & 0x10 != 0,
                })
            }
            subtype::ADD_ADDR => {
                if value.len() < 6 {
                    return None;
                }
                let addr_id = value[1];
                let addr = u32::from_be_bytes(value[2..6].try_into().ok()?);
                let port = if value.len() >= 8 {
                    Some(u16::from_be_bytes(value[6..8].try_into().ok()?))
                } else {
                    None
                };
                Some(MptcpOption::AddAddr(AdvertisedAddr {
                    addr_id,
                    addr,
                    port,
                }))
            }
            subtype::REMOVE_ADDR => {
                if value.len() < 2 {
                    return None;
                }
                Some(MptcpOption::RemoveAddr {
                    addr_ids: value[1..].to_vec(),
                })
            }
            subtype::MP_PRIO => Some(MptcpOption::MpPrio {
                backup: value[0] & 0x01 != 0,
                addr_id: value.get(1).copied(),
            }),
            subtype::MP_FAIL => {
                if value.len() < 10 {
                    return None;
                }
                Some(MptcpOption::MpFail {
                    dsn: u64::from_be_bytes(value[2..10].try_into().ok()?),
                })
            }
            subtype::FASTCLOSE => {
                if value.len() < 10 {
                    return None;
                }
                Some(MptcpOption::FastClose {
                    receiver_key: u64::from_be_bytes(value[2..10].try_into().ok()?),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opt: MptcpOption) {
        let mut buf = Vec::new();
        opt.encode_value(&mut buf);
        assert_eq!(opt.value_len(), buf.len(), "value_len for {opt:?}");
        let decoded = MptcpOption::decode_value(&buf).expect("decode");
        assert_eq!(opt, decoded);
    }

    #[test]
    fn mp_capable_syn_roundtrip() {
        roundtrip(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 0x0123456789abcdef,
            receiver_key: None,
        });
    }

    #[test]
    fn mp_capable_ack_roundtrip() {
        roundtrip(MptcpOption::MpCapable {
            version: 0,
            checksum_required: false,
            sender_key: 1,
            receiver_key: Some(2),
        });
    }

    #[test]
    fn mp_join_roundtrips() {
        roundtrip(MptcpOption::MpJoinSyn {
            token: 0xaabbccdd,
            nonce: 0x11223344,
            addr_id: 2,
            backup: true,
        });
        roundtrip(MptcpOption::MpJoinSynAck {
            mac: 0xfeedfacecafebeef,
            nonce: 7,
            addr_id: 1,
            backup: false,
        });
        roundtrip(MptcpOption::MpJoinAck { mac: [0x5a; 20] });
    }

    #[test]
    fn dss_all_fields_roundtrip() {
        roundtrip(MptcpOption::Dss {
            data_ack: Some(0x7fff_0001),
            mapping: Some(DssMapping {
                dsn: 0xdead_beef_0000_0001,
                subflow_seq: 42,
                len: 1460,
                checksum: Some(0x8a31),
            }),
            data_fin: true,
        });
    }

    #[test]
    fn dss_data_ack_truncates_to_32_bits() {
        // The wire carries the low 32 bits; the peer re-expands them.
        let opt = MptcpOption::Dss {
            data_ack: Some(0x1_2345_6789),
            mapping: None,
            data_fin: false,
        };
        let mut buf = Vec::new();
        opt.encode_value(&mut buf);
        match MptcpOption::decode_value(&buf).unwrap() {
            MptcpOption::Dss { data_ack, .. } => assert_eq!(data_ack, Some(0x2345_6789)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_dss_plus_ack_fits_option_space() {
        // The size claim the 4-byte DATA_ACK exists for: mapping DSS (20) +
        // ack-only DSS (8) + timestamps (10) + padding <= 40.
        let mut mapping = Vec::new();
        MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn: u64::MAX,
                subflow_seq: 1,
                len: 1460,
                checksum: Some(7),
            }),
            data_fin: false,
        }
        .encode_value(&mut mapping);
        let mut ack = Vec::new();
        MptcpOption::Dss {
            data_ack: Some(u64::MAX),
            mapping: None,
            data_fin: false,
        }
        .encode_value(&mut ack);
        // +2 per option for kind/len bytes, +10 for timestamps.
        let total = (mapping.len() + 2) + (ack.len() + 2) + 10;
        assert!(total <= 40, "DSS encodings too large: {total}");
    }

    #[test]
    fn dss_ack_only_roundtrip() {
        roundtrip(MptcpOption::Dss {
            data_ack: Some(99),
            mapping: None,
            data_fin: false,
        });
    }

    #[test]
    fn dss_mapping_without_checksum_roundtrip() {
        roundtrip(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn: 5,
                subflow_seq: 1,
                len: 100,
                checksum: None,
            }),
            data_fin: false,
        });
    }

    #[test]
    fn addr_management_roundtrips() {
        roundtrip(MptcpOption::AddAddr(AdvertisedAddr {
            addr_id: 3,
            addr: 0x0a000001,
            port: Some(8080),
        }));
        roundtrip(MptcpOption::AddAddr(AdvertisedAddr {
            addr_id: 4,
            addr: 0xc0a80101,
            port: None,
        }));
        roundtrip(MptcpOption::RemoveAddr {
            addr_ids: vec![1, 2, 3],
        });
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(MptcpOption::MpPrio {
            backup: true,
            addr_id: Some(2),
        });
        roundtrip(MptcpOption::MpFail { dsn: u64::MAX - 1 });
        roundtrip(MptcpOption::FastClose {
            receiver_key: 0x1234,
        });
    }

    #[test]
    fn malformed_rejected() {
        assert!(MptcpOption::decode_value(&[]).is_none());
        // Truncated MP_CAPABLE.
        assert!(MptcpOption::decode_value(&[0x00, 0x01, 0xaa]).is_none());
        // Unknown subtype 0xf.
        assert!(MptcpOption::decode_value(&[0xf0, 0, 0, 0]).is_none());
        // MP_JOIN with nonsense length.
        assert!(MptcpOption::decode_value(&[0x10, 0, 1, 2, 3]).is_none());
    }

    #[test]
    fn mapping_end_helpers() {
        let m = DssMapping {
            dsn: 100,
            subflow_seq: 50,
            len: 10,
            checksum: None,
        };
        assert_eq!(m.dsn_end(), 110);
        assert_eq!(m.subflow_end(), 60);
    }
}
