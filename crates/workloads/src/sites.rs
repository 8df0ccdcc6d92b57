//! Allocation and access sites for synthetic applications.
//!
//! Each modelled application owns a [`SiteRegistry`]: a set of allocation
//! calling contexts (each a multi-frame backtrace plus the cheap
//! *(first-level, stack-offset)* key CSOD hashes) and a set of access
//! sites (the statements that read and write heap memory, each tagged
//! with the module it lives in — which decides whether the ASan model
//! checks it).

use csod_ctx::{CallingContext, ContextKey, FrameTable};
use sim_machine::SiteToken;
use std::sync::Arc;

/// One allocation calling context of a modelled application.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Index in the registry.
    pub index: usize,
    /// The cheap key CSOD hashes on every allocation.
    pub key: ContextKey,
    /// The full backtrace captured on first sight.
    pub context: CallingContext,
}

/// One heap-accessing statement of a modelled application.
#[derive(Debug, Clone)]
pub struct AccessSite {
    /// The token the machine carries into traps.
    pub token: SiteToken,
    /// The statement's full calling context (for CSOD's Figure-6 report).
    pub context: CallingContext,
    /// The module the statement is compiled into (for ASan's
    /// instrumentation decision).
    pub module: String,
}

/// The sites of one modelled application.
#[derive(Debug)]
pub struct SiteRegistry {
    frames: Arc<FrameTable>,
    app: String,
    alloc_sites: Vec<AllocSite>,
    access_sites: Vec<AccessSite>,
    functions: Vec<String>,
}

impl SiteRegistry {
    /// Creates a registry for application `app` over a shared frame table.
    pub fn new(app: &str, frames: Arc<FrameTable>) -> Self {
        SiteRegistry {
            frames,
            app: app.to_owned(),
            alloc_sites: Vec::new(),
            access_sites: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// The shared frame table.
    pub fn frames(&self) -> &Arc<FrameTable> {
        &self.frames
    }

    /// The application name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Adds an allocation site with a `depth`-frame backtrace, returning
    /// its index. Distinct indices produce distinct keys *and* distinct
    /// full contexts.
    pub fn add_alloc_site(&mut self, depth: usize) -> usize {
        let index = self.alloc_sites.len();
        let depth = depth.max(2);
        let mut locations = Vec::with_capacity(depth);
        // Innermost frame: the statement invoking malloc.
        locations.push(format!("{}/alloc/site_{index}.c:{}", self.app, 100 + index));
        for level in 1..depth - 1 {
            locations.push(format!(
                "{}/logic/layer{level}.c:{}",
                self.app,
                10 + (index * 7 + level * 13) % 900
            ));
        }
        locations.push(format!("{}/main.c:42", self.app));
        let context =
            CallingContext::from_locations(&self.frames, locations.iter().map(String::as_str));
        let key = ContextKey::new(
            context.first_level().expect("depth >= 2"),
            // Distinct stack offsets mimic distinct call paths.
            0x40 + (index as u64) * 0x10,
        );
        self.alloc_sites.push(AllocSite {
            index,
            key,
            context,
        });
        index
    }

    /// Adds `n` allocation sites of default depth and returns nothing;
    /// sites are indexed `0..n`.
    pub fn add_alloc_sites(&mut self, n: usize) {
        for _ in 0..n {
            self.add_alloc_site(4);
        }
    }

    /// The allocation site at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn alloc_site(&self, index: usize) -> &AllocSite {
        &self.alloc_sites[index]
    }

    /// Number of allocation sites.
    pub fn alloc_site_count(&self) -> usize {
        self.alloc_sites.len()
    }

    /// Iterates over all allocation sites in index order.
    pub fn alloc_sites(&self) -> impl Iterator<Item = &AllocSite> {
        self.alloc_sites.iter()
    }

    /// Adds an access site living in `module` with a descriptive
    /// innermost frame `label` (e.g. `"memcpy-sse2-unaligned.S:81"`).
    pub fn add_access_site(&mut self, module: &str, label: &str) -> SiteToken {
        let token = SiteToken(self.access_sites.len() as u64);
        let context = CallingContext::from_locations(
            &self.frames,
            [
                format!("{module}/{label}"),
                format!(
                    "{}/logic/driver.c:{}",
                    self.app,
                    200 + self.access_sites.len()
                ),
                format!("{}/main.c:42", self.app),
            ]
            .iter()
            .map(String::as_str),
        );
        self.access_sites.push(AccessSite {
            token,
            context,
            module: module.to_owned(),
        });
        token
    }

    /// The access site behind `token`.
    ///
    /// # Panics
    ///
    /// Panics if the token did not come from this registry.
    pub fn access_site(&self, token: SiteToken) -> &AccessSite {
        &self.access_sites[token.0 as usize]
    }

    /// Iterates over all access sites.
    pub fn access_sites(&self) -> impl Iterator<Item = &AccessSite> {
        self.access_sites.iter()
    }

    /// Registers function `name` for [`Call`](crate::Event::Call)
    /// events and returns its index. Re-registering a name returns the
    /// existing index, so generators can use names as handles.
    pub fn add_function(&mut self, name: &str) -> usize {
        if let Some(i) = self.functions.iter().position(|f| f == name) {
            return i;
        }
        self.functions.push(name.to_owned());
        self.functions.len() - 1
    }

    /// The name of function `func`; `"fn?<idx>"` for indices the trace
    /// used without registering (generators that only need distinct
    /// call edges, not names).
    pub fn function_name(&self, func: usize) -> String {
        self.functions
            .get(func)
            .cloned()
            .unwrap_or_else(|| format!("fn?{func}"))
    }

    /// Number of registered functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_sites_have_distinct_keys_and_contexts() {
        let frames = Arc::new(FrameTable::new());
        let mut reg = SiteRegistry::new("gzip", frames);
        reg.add_alloc_sites(10);
        assert_eq!(reg.alloc_site_count(), 10);
        for i in 0..10 {
            for j in 0..i {
                assert_ne!(reg.alloc_site(i).key, reg.alloc_site(j).key);
                assert_ne!(reg.alloc_site(i).context, reg.alloc_site(j).context);
            }
        }
    }

    #[test]
    fn contexts_have_requested_depth() {
        let frames = Arc::new(FrameTable::new());
        let mut reg = SiteRegistry::new("mysql", frames);
        let i = reg.add_alloc_site(6);
        assert_eq!(reg.alloc_site(i).context.depth(), 6);
        // Depth below 2 is clamped.
        let j = reg.add_alloc_site(0);
        assert_eq!(reg.alloc_site(j).context.depth(), 2);
    }

    #[test]
    fn access_sites_carry_module() {
        let frames = Arc::new(FrameTable::new());
        let mut reg = SiteRegistry::new("nginx", frames);
        let t = reg.add_access_site("openssl", "ssl/t1_lib.c:2588");
        let site = reg.access_site(t);
        assert_eq!(site.module, "openssl");
        let rendered = site.context.render(reg.frames());
        assert!(rendered.contains("t1_lib.c:2588"));
        assert!(rendered.contains("nginx/main.c:42"));
    }

    #[test]
    fn tokens_are_dense() {
        let frames = Arc::new(FrameTable::new());
        let mut reg = SiteRegistry::new("x", frames);
        assert_eq!(reg.add_access_site("m", "a:1"), SiteToken(0));
        assert_eq!(reg.add_access_site("m", "b:2"), SiteToken(1));
        assert_eq!(reg.access_sites().count(), 2);
    }
}
