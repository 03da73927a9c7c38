//! The one stack the root suites build: [`Rig`], over the store [`store`]
//! chooses, with the fixtures it ingests and the check that no file on its
//! backends lies outside a listed dataset.
//!
//! A suite that does not care which medium it runs on takes its backends
//! from [`store`], so running every such suite over another store is an
//! edit of that one function. A suite that pins a medium names it and
//! hands it to [`Rig::over`].

// Each suite compiles this module and uses a part of it.
#![allow(dead_code)]

use ada_client::{Client, ClientConfig};
use ada_core::{Ada, AdaConfig, IngestInput, LabelFile};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::write_pdb;
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_plfs::ContainerSet;
use ada_server::{Server, ServerConfig};
use ada_simfs::{LocalFs, SimFileSystem};
use ada_workload::Workload;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The SSD and the HDD of every suite that does not pin a medium: ext4 on
/// NVMe and ext4 on a disk.
pub fn store() -> [Arc<dyn SimFileSystem>; 2] {
    [
        Arc::new(LocalFs::ext4_on_nvme()),
        Arc::new(LocalFs::ext4_on_hdd()),
    ]
}

/// `Ada` over two backends mounted as `ssd` (which holds the label files)
/// and `hdd`, and when asked for, a front-end over it and a loopback
/// server of that front-end.
pub struct Rig {
    pub ssd: Arc<dyn SimFileSystem>,
    pub hdd: Arc<dyn SimFileSystem>,
    ada: Arc<Ada>,
    frontend: Option<Arc<Frontend>>,
    server: Option<Server>,
}

impl Rig {
    /// `config` over [`store`]'s backends.
    pub fn new(config: AdaConfig) -> Rig {
        let [ssd, hdd] = store();
        Rig::over(ssd, hdd, config)
    }

    /// The paper's prototype over [`store`]'s backends.
    pub fn paper() -> Rig {
        Rig::new(AdaConfig::paper_prototype("ssd", "hdd"))
    }

    /// `config` over the given backends.
    pub fn over(
        ssd: Arc<dyn SimFileSystem>,
        hdd: Arc<dyn SimFileSystem>,
        config: AdaConfig,
    ) -> Rig {
        let containers = ContainerSet::new(vec![
            ("ssd".into(), Arc::clone(&ssd)),
            ("hdd".into(), Arc::clone(&hdd)),
        ]);
        let ada = Ada::new(config, Arc::new(containers), Arc::clone(&ssd));
        Rig {
            ssd,
            hdd,
            ada: Arc::new(ada),
            frontend: None,
            server: None,
        }
    }

    pub fn ada(&self) -> &Arc<Ada> {
        &self.ada
    }

    /// Every file on either backend that no listed dataset accounts for:
    /// neither a dropping its label names nor its label file.
    pub fn strays(&self) -> Vec<String> {
        let mut owned = BTreeSet::new();
        for dataset in self.ada.list_datasets() {
            // A dataset deleted since the listing accounts for nothing.
            let Ok(label) = self.ada.label(&dataset) else {
                continue;
            };
            let droppings = label.entries().values();
            owned.extend(droppings.map(|e| e.dropping.dropping_path.clone()));
            owned.insert(LabelFile::path_for(&dataset));
        }
        let files = [&self.ssd, &self.hdd]
            .into_iter()
            .flat_map(|fs| fs.list(""));
        files.filter(|f| !owned.contains(f)).collect()
    }

    /// This rig with a front-end over its `Ada`.
    pub fn with_frontend(mut self, config: FrontendConfig) -> Rig {
        self.frontend = Some(Arc::new(Frontend::new(Arc::clone(&self.ada), config)));
        self
    }

    /// This rig's front-end (a default one if it was built without)
    /// served on a loopback port.
    pub fn serve(self, config: ServerConfig) -> Rig {
        let mut rig = match self.frontend {
            Some(_) => self,
            None => self.with_frontend(FrontendConfig::default()),
        };
        let server = Server::start(Arc::clone(rig.frontend()), config);
        rig.server = Some(server.expect("server must start"));
        rig
    }

    pub fn frontend(&self) -> &Arc<Frontend> {
        self.frontend
            .as_ref()
            .expect("a rig built with a front-end")
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("a served rig")
    }

    /// Stop the server and join its threads, which seals every trace of
    /// the requests it served.
    pub fn shutdown(&mut self) {
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
    }

    /// A client of the server, named `name`.
    pub fn client(&self, name: &str) -> Client {
        self.client_with(ClientConfig {
            name: name.to_string(),
            ..ClientConfig::default()
        })
    }

    pub fn client_with(&self, config: ClientConfig) -> Client {
        Client::new(self.server().local_addr().to_string(), config)
    }
}

/// What `w` ingests as: its structure as PDB text and its trajectory as
/// XTC at the default precision.
pub fn fixture(w: &Workload) -> (String, Vec<u8>) {
    let xtc = write_xtc(&w.trajectory, DEFAULT_PRECISION).expect("a workload encodes");
    (write_pdb(&w.system), xtc)
}

/// [`fixture`] as an ingest.
pub fn input(w: &Workload) -> IngestInput {
    let (pdb_text, xtc_bytes) = fixture(w);
    IngestInput::Real {
        pdb_text,
        xtc_bytes,
    }
}
