//! Set-up: everything a workload's operations run against — parsed
//! sources, wrappers, loopback daemons, and a default mediator with every
//! view registered. Built from scratch for every timed set-up.

use crate::inputs::{Inputs, SourceSpec};
use crate::trace::{Probe, TimedService, Tracer};
use crate::Workload;
use mix_mediator::{
    Mediator, RemoteWrapper, SourceError, StreamingWrapper, Wrapper, WrapperService, XmlSource,
};
use mix_net::{Server, ServerConfig, ServerHandle};
use mix_xmas::Query;
use mix_xml::parse_document;
use std::io::{Cursor, Read};
use std::sync::Arc;
use std::time::Instant;

/// One source whose schema an update flips between D1 and revised D1.
struct Flip {
    source: String,
    versions: [Arc<dyn Wrapper>; 2],
    current: usize,
}

pub struct World {
    /// Declared first so it drops (closing its connections) before the
    /// daemons shut down.
    pub mediator: Mediator,
    flips: Vec<Flip>,
    next_flip: usize,
    daemons: Vec<ServerHandle>,
    /// Milliseconds each `RemoteWrapper::connect` took.
    pub connect_ms: Vec<f64>,
}

/// A source's name, its wrapper, and for a flipped source the wrapper of
/// its revised schema version.
type Versions = (String, Arc<dyn Wrapper>, Option<Arc<dyn Wrapper>>);

/// Shared in-memory bytes, readable through a `Cursor`.
struct Bytes(Arc<Vec<u8>>);

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl World {
    pub fn build(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> Result<World, String> {
        let mut daemons = Vec::new();
        let mut connect_ms = Vec::new();
        let mut serve = |source: XmlSource| -> Result<Arc<dyn Wrapper>, String> {
            let service = WrapperService::new(source);
            let config = ServerConfig::default();
            let handle = match tracer {
                Some(t) => {
                    let timed = TimedService::new(service, Arc::clone(t));
                    Server::bind("127.0.0.1:0", Arc::new(timed), config)
                        .map(|s| s.with_registry(t.daemon_registry()))
                        .and_then(Server::spawn)
                }
                None => {
                    Server::bind("127.0.0.1:0", Arc::new(service), config).and_then(Server::spawn)
                }
            }
            .map_err(|e| format!("daemon: {e}"))?;
            let addr = handle.addr().to_string();
            daemons.push(handle);
            let t = Instant::now();
            let remote = RemoteWrapper::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(Arc::new(remote))
        };

        let mut wrappers: Vec<Versions> = Vec::new();
        for SourceSpec {
            name,
            xml,
            department,
        } in &inputs.sources
        {
            let doc = parse_document(xml).map_err(|e| format!("{name}: {e}"))?;
            let flipped = inputs.flipped.contains(name);
            let revised = flipped
                .then(|| XmlSource::new(inputs.d1_revised.clone(), doc.clone()))
                .transpose()
                .map_err(|e| format!("{name} (revised): {e}"))?;
            let dtd = if *department {
                &inputs.d1
            } else {
                &inputs.archive_dtd
            };
            let base = XmlSource::new(dtd.clone(), doc).map_err(|e| format!("{name}: {e}"))?;
            let (base, revised): (Arc<dyn Wrapper>, Option<Arc<dyn Wrapper>>) =
                match inputs.workload {
                    Workload::ServeRemote => (serve(base)?, revised.map(&mut serve).transpose()?),
                    _ => (
                        Arc::new(base),
                        revised.map(|r| Arc::new(r) as Arc<dyn Wrapper>),
                    ),
                };
            wrappers.push((name.clone(), base, revised));
        }
        if let Some(bytes) = &inputs.stream_bytes {
            let streaming = |dtd: &mix_dtd::Dtd| -> Arc<dyn Wrapper> {
                let bytes = Arc::clone(bytes);
                Arc::new(StreamingWrapper::new(
                    dtd.clone(),
                    Box::new(move || {
                        Ok::<_, SourceError>(Box::new(Cursor::new(Bytes(Arc::clone(&bytes))))
                            as Box<dyn Read + Send>)
                    }),
                ))
            };
            wrappers.push((
                "big".to_owned(),
                streaming(&inputs.d1),
                Some(streaming(&inputs.d1_revised)),
            ));
        }

        let mut mediator = Mediator::new();
        let mut flips = Vec::new();
        for (name, base, revised) in wrappers {
            let probe = |w: Arc<dyn Wrapper>| match tracer {
                Some(t) => Arc::new(Probe::new(&name, w, Arc::clone(t))) as Arc<dyn Wrapper>,
                None => w,
            };
            let base = probe(base);
            mediator.add_source(&name, Arc::clone(&base));
            if let Some(revised) = revised {
                flips.push(Flip {
                    source: name.clone(),
                    versions: [base, probe(revised)],
                    current: 0,
                });
            }
        }
        for (source, q) in &inputs.views {
            mediator
                .register_view(source, q)
                .map_err(|e| format!("view {}: {e}", q.view_name))?;
        }
        let parts: Vec<(&str, Query)> = inputs
            .union_parts
            .iter()
            .map(|(s, q)| (s.as_str(), q.clone()))
            .collect();
        mediator
            .register_union_view(&inputs.union_name.to_string(), &parts)
            .map_err(|e| format!("union view: {e}"))?;
        // flips rotate in the order the inputs name them
        flips.sort_by_key(|f| inputs.flipped.iter().position(|s| *s == f.source));
        Ok(World {
            mediator,
            flips,
            next_flip: 0,
            daemons,
            connect_ms,
        })
    }

    /// The next update: the source to replace and the other version of
    /// its wrapper.
    pub fn next_flip(&mut self) -> (String, Arc<dyn Wrapper>) {
        let i = self.next_flip;
        self.next_flip = (i + 1) % self.flips.len();
        let flip = &mut self.flips[i];
        flip.current ^= 1;
        (
            flip.source.clone(),
            Arc::clone(&flip.versions[flip.current]),
        )
    }

    /// The DTD a source currently exports (flipped sources change it).
    pub fn current_dtd<'a>(&'a self, inputs: &'a Inputs, source: &str) -> &'a mix_dtd::Dtd {
        match self.flips.iter().find(|f| f.source == source) {
            Some(f) => f.versions[f.current].dtd(),
            None if source.starts_with("archive") => &inputs.archive_dtd,
            None => &inputs.d1,
        }
    }

    /// Closes the mediator's connections, then stops every daemon and
    /// waits for it.
    pub fn shutdown(self) {
        let World {
            mediator,
            flips,
            daemons,
            ..
        } = self;
        drop(mediator);
        drop(flips);
        for d in daemons {
            d.shutdown();
        }
    }
}
