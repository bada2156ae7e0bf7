//! The entity taxonomy of the paper's measurement study (§2, Table 1).
//!
//! The paper crawls three services and two platforms:
//!
//! * **Yelp** — restaurants, queried by **9 popular cuisines**;
//! * **Healthgrades** — doctors, queried by **4 specialties** (dentists,
//!   family medicine, pediatrics, plastic surgery);
//! * **Angie's List** — **24 types of service providers**;
//! * **Google Play** (apps) and **YouTube** (videos) for the
//!   explicit-vs-implicit interaction comparison (Fig. 1c).
//!
//! This module encodes that taxonomy as exhaustive enums so the synthetic
//! catalogs, the crawler, the search index, and the harnesses all agree on
//! exactly the same query universe.

use std::fmt;

/// The recommendation services / platforms the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceKind {
    /// Yelp — restaurants.
    Yelp,
    /// Angie's List — home service providers.
    AngiesList,
    /// Healthgrades — doctors.
    Healthgrades,
    /// Google Play — mobile apps (Fig. 1c only).
    GooglePlay,
    /// YouTube — videos (Fig. 1c only).
    YouTube,
}

impl ServiceKind {
    /// The three review-centric services of Table 1 / Fig. 1(a,b).
    pub const REVIEW_SERVICES: [ServiceKind; 3] =
        [ServiceKind::Yelp, ServiceKind::AngiesList, ServiceKind::Healthgrades];

    /// The two interaction-count platforms of Fig. 1(c).
    pub const INTERACTION_PLATFORMS: [ServiceKind; 2] =
        [ServiceKind::GooglePlay, ServiceKind::YouTube];

    /// Human-readable name matching the paper.
    pub const fn name(self) -> &'static str {
        match self {
            ServiceKind::Yelp => "Yelp",
            ServiceKind::AngiesList => "Angie's List",
            ServiceKind::Healthgrades => "Healthgrades",
            ServiceKind::GooglePlay => "Google Play",
            ServiceKind::YouTube => "YouTube",
        }
    }

    /// Number of query categories the paper uses for this service
    /// (Table 1: Yelp 9, Angie's List 24, Healthgrades 4).
    pub fn category_count(self) -> usize {
        match self {
            ServiceKind::Yelp => Cuisine::ALL.len(),
            ServiceKind::AngiesList => Trade::ALL.len(),
            ServiceKind::Healthgrades => Specialty::ALL.len(),
            // Play/YouTube are sampled by entity, not queried by category.
            ServiceKind::GooglePlay | ServiceKind::YouTube => 0,
        }
    }

    /// The categories queried on this service.
    pub fn categories(self) -> Vec<Category> {
        match self {
            ServiceKind::Yelp => Cuisine::ALL.iter().copied().map(Category::Restaurant).collect(),
            ServiceKind::AngiesList => {
                Trade::ALL.iter().copied().map(Category::ServiceProvider).collect()
            }
            ServiceKind::Healthgrades => {
                Specialty::ALL.iter().copied().map(Category::Doctor).collect()
            }
            ServiceKind::GooglePlay => vec![Category::App],
            ServiceKind::YouTube => vec![Category::Video],
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! simple_enum {
    (
        $(#[$doc:meta])*
        $name:ident { $($variant:ident => $label:expr),+ $(,)? }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum $name {
            $(
                #[doc = $label]
                $variant,
            )+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Human-readable label.
            pub const fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label),+
                }
            }

            /// Stable index of the variant within [`Self::ALL`].
            pub fn index(self) -> usize {
                Self::ALL.iter().position(|v| *v == self).expect("variant in ALL")
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }
    };
}

simple_enum! {
    /// The 9 popular cuisines the paper queries on Yelp.
    Cuisine {
        American => "American",
        Chinese => "Chinese",
        Italian => "Italian",
        Japanese => "Japanese",
        Mexican => "Mexican",
        Indian => "Indian",
        Thai => "Thai",
        Mediterranean => "Mediterranean",
        French => "French",
    }
}

simple_enum! {
    /// The 4 doctor specialties the paper queries on Healthgrades (§2).
    Specialty {
        Dentist => "Dentist",
        FamilyMedicine => "Family Medicine",
        Pediatrics => "Pediatrics",
        PlasticSurgery => "Plastic Surgery",
    }
}

simple_enum! {
    /// The 24 service-provider trades queried on Angie's List (§2 says
    /// "all 24 types of service providers listed on the site").
    Trade {
        Electrician => "Electrician",
        Plumber => "Plumber",
        Gardener => "Gardener",
        Handyman => "Handyman",
        HouseCleaner => "House Cleaner",
        Painter => "Painter",
        Roofer => "Roofer",
        Hvac => "HVAC",
        Landscaper => "Landscaper",
        PestControl => "Pest Control",
        Locksmith => "Locksmith",
        Mover => "Mover",
        Carpenter => "Carpenter",
        Flooring => "Flooring",
        WindowInstaller => "Window Installer",
        GarageDoor => "Garage Door",
        ApplianceRepair => "Appliance Repair",
        TreeService => "Tree Service",
        Fencing => "Fencing",
        Masonry => "Masonry",
        GutterCleaning => "Gutter Cleaning",
        PoolService => "Pool Service",
        SepticService => "Septic Service",
        Chimney => "Chimney Sweep",
    }
}

/// A query/entity category across all services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// A restaurant of a given cuisine (Yelp).
    Restaurant(Cuisine),
    /// A doctor of a given specialty (Healthgrades).
    Doctor(Specialty),
    /// A home service provider of a given trade (Angie's List).
    ServiceProvider(Trade),
    /// A mobile app (Google Play; Fig. 1c).
    App,
    /// A video (YouTube; Fig. 1c).
    Video,
}

impl Category {
    /// The service this category belongs to.
    pub const fn service(self) -> ServiceKind {
        match self {
            Category::Restaurant(_) => ServiceKind::Yelp,
            Category::Doctor(_) => ServiceKind::Healthgrades,
            Category::ServiceProvider(_) => ServiceKind::AngiesList,
            Category::App => ServiceKind::GooglePlay,
            Category::Video => ServiceKind::YouTube,
        }
    }

    /// All *physical-world* categories — the ones an RSP's client can
    /// observe interactions with (restaurants, doctors, trades).
    pub fn all_physical() -> Vec<Category> {
        let mut v = Vec::new();
        v.extend(Cuisine::ALL.iter().copied().map(Category::Restaurant));
        v.extend(Specialty::ALL.iter().copied().map(Category::Doctor));
        v.extend(Trade::ALL.iter().copied().map(Category::ServiceProvider));
        v
    }

    /// True for categories a user physically visits (restaurants, dentists
    /// and other doctors) as opposed to calling to their home (trades).
    pub const fn is_visited_in_person(self) -> bool {
        matches!(self, Category::Restaurant(_) | Category::Doctor(_))
    }

    /// True for categories where the dominant observable is a phone call
    /// (home service trades: the provider comes to you).
    pub const fn is_phone_first(self) -> bool {
        matches!(self, Category::ServiceProvider(_))
    }

    /// Typical revisit cadence for a loyal user of this category; drives
    /// both the world simulator and the fraud detector's priors.
    ///
    /// Restaurants are visited weekly-ish; dentists twice a year; trades a
    /// few times a year; apps/videos are online-only.
    pub fn typical_gap_days(self) -> f64 {
        match self {
            Category::Restaurant(_) => 10.0,
            Category::Doctor(Specialty::Dentist) => 180.0,
            Category::Doctor(Specialty::FamilyMedicine) => 120.0,
            Category::Doctor(Specialty::Pediatrics) => 90.0,
            Category::Doctor(Specialty::PlasticSurgery) => 240.0,
            Category::ServiceProvider(_) => 75.0,
            Category::App => 2.0,
            Category::Video => 30.0,
        }
    }

    /// Stable small integer for hashing/indexing across all categories.
    pub fn stable_index(self) -> usize {
        match self {
            Category::Restaurant(c) => c.index(),
            Category::Doctor(s) => 100 + s.index(),
            Category::ServiceProvider(t) => 200 + t.index(),
            Category::App => 300,
            Category::Video => 301,
        }
    }

    /// Inverse of [`Self::stable_index`]: decode a category from its
    /// stable index (e.g. off a wire message). `None` for indices that
    /// no category maps to.
    pub fn from_stable_index(index: usize) -> Option<Category> {
        match index {
            300 => Some(Category::App),
            301 => Some(Category::Video),
            i if i >= 200 => Trade::ALL.get(i - 200).map(|t| Category::ServiceProvider(*t)),
            i if i >= 100 => Specialty::ALL.get(i - 100).map(|s| Category::Doctor(*s)),
            i => Cuisine::ALL.get(i).map(|c| Category::Restaurant(*c)),
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Restaurant(c) => write!(f, "{c} restaurant"),
            Category::Doctor(s) => write!(f, "{s}"),
            Category::ServiceProvider(t) => write!(f, "{t}"),
            Category::App => write!(f, "App"),
            Category::Video => write!(f, "Video"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn taxonomy_counts_match_table_1() {
        assert_eq!(Cuisine::ALL.len(), 9);
        assert_eq!(Specialty::ALL.len(), 4);
        assert_eq!(Trade::ALL.len(), 24);
        assert_eq!(ServiceKind::Yelp.category_count(), 9);
        assert_eq!(ServiceKind::AngiesList.category_count(), 24);
        assert_eq!(ServiceKind::Healthgrades.category_count(), 4);
    }

    #[test]
    fn stable_index_round_trips() {
        let mut all = Category::all_physical();
        all.push(Category::App);
        all.push(Category::Video);
        for cat in all {
            assert_eq!(Category::from_stable_index(cat.stable_index()), Some(cat));
        }
        assert_eq!(Category::from_stable_index(99), None);
        assert_eq!(Category::from_stable_index(302), None);
        assert_eq!(Category::from_stable_index(usize::MAX), None);
    }

    #[test]
    fn all_physical_is_union_of_taxonomies() {
        let all = Category::all_physical();
        assert_eq!(all.len(), 9 + 4 + 24);
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len(), "no duplicates");
    }

    #[test]
    fn categories_round_trip_to_services() {
        for svc in ServiceKind::REVIEW_SERVICES {
            for cat in svc.categories() {
                assert_eq!(cat.service(), svc);
            }
        }
    }

    #[test]
    fn stable_indexes_are_unique() {
        let mut seen = HashSet::new();
        for cat in Category::all_physical() {
            assert!(seen.insert(cat.stable_index()), "dup index for {cat}");
        }
        assert!(seen.insert(Category::App.stable_index()));
        assert!(seen.insert(Category::Video.stable_index()));
    }

    #[test]
    fn interaction_mode_flags_are_exclusive_for_physical() {
        for cat in Category::all_physical() {
            assert!(
                cat.is_visited_in_person() ^ cat.is_phone_first(),
                "{cat} must be exactly one of visit/phone"
            );
        }
    }

    #[test]
    fn gaps_reflect_domain_cadence() {
        // Dentists are the paper's canonical "rarely used" provider: gaps
        // must be far longer than restaurants.
        assert!(
            Category::Doctor(Specialty::Dentist).typical_gap_days()
                > 10.0 * Category::Restaurant(Cuisine::Chinese).typical_gap_days()
        );
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Category::Restaurant(Cuisine::Chinese).to_string(), "Chinese restaurant");
        assert_eq!(Category::Doctor(Specialty::Dentist).to_string(), "Dentist");
        assert_eq!(ServiceKind::AngiesList.to_string(), "Angie's List");
    }

    #[test]
    fn index_matches_position() {
        for (i, c) in Cuisine::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, t) in Trade::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }
}
